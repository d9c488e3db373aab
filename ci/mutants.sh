#!/usr/bin/env bash
# Mutation run: applies each hand-written mutant in a list (default
# ci/mutants.json, next to this script) to a scratch copy of the repository,
# one at a time, runs `cargo test -q --workspace --no-fail-fast` there, and
# prints whether the tests killed it and which tests failed. Then the score.
#
# Each list entry names a file, the exact old text (found exactly once), its
# replacement and the claim the mutant should break. A mutant counts as
# killed only if some test outside the mutated file's own unit tests fails:
# one that only those see has not reached a claim. Survivors are reported,
# not gated: the run fails only when an entry's old text is no longer found,
# so the list cannot rot as the code moves.
#
#   ci/mutants.sh [list.json]
#
# MUTANTS_DIR names the scratch directory (default: a fresh mktemp -d); its
# target/ is reused across mutants, so each one rebuilds incrementally.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
list=$(realpath "${1:-$root/ci/mutants.json}")
work=${MUTANTS_DIR:-$(mktemp -d)}
mkdir -p "$work/tree"
# The tracked files as they are in the working tree.
(cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar -xf - -C "$work/tree"
export CARGO_TARGET_DIR="$work/target"

python3 - "$list" "$work/tree" <<'PY'
import json, re, subprocess, sys, pathlib

mutants = json.load(open(sys.argv[1]))
tree = pathlib.Path(sys.argv[2])
def own_tests(path):
    """The test-name prefix of the unit tests inside the file at `path`."""
    module = re.sub(r"^crates/[^/]+/src/|(/mod|/?lib)?\.rs$", "", path)
    return (module.replace("/", "::") + "::" if module else "") + "tests::"

killed, survived, rotted = [], [], []
for m in mutants:
    path = tree / m["path"]
    original = path.read_text()
    found = original.count(m["old"])
    if found != 1:
        rotted.append(m["name"])
        print(f"ROTTED   {m['name']}: old text found {found} times in {m['path']}", flush=True)
        continue
    path.write_text(original.replace(m["old"], m["new"]))
    try:
        run = subprocess.run(
            ["cargo", "test", "-q", "--workspace", "--no-fail-fast"],
            cwd=tree, capture_output=True, text=True,
        )
    finally:
        path.write_text(original)
    out = run.stdout + run.stderr
    failed = sorted(set(re.findall(r"^---- (\S+) stdout ----$", out, re.M)))
    outside = [t for t in failed if not t.startswith(own_tests(m["path"]))]
    if run.returncode == 0 or (failed and not outside):
        survived.append(m["name"])
        seen = f"; only its own unit tests fail: {', '.join(failed)}" if failed else ""
        print(f"SURVIVED {m['name']} (claim: {m['claim']}{seen})", flush=True)
    elif failed:
        killed.append(m["name"])
        print(f"KILLED   {m['name']} by {len(failed)}: {', '.join(failed)}", flush=True)
    else:
        killed.append(m["name"])
        print(f"KILLED   {m['name']} (no test ran: the mutant does not build)", flush=True)
print(f"mutation score: {len(killed)}/{len(mutants)} killed, {len(survived)} survived"
      + (f": {'; '.join(survived)}" if survived else ""))
sys.exit(1 if rotted else 0)
PY
