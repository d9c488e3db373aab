//! SARIF 2.1.0 emission and the finding baseline.
//!
//! A small hand-rolled serializer produces the subset of SARIF that CI
//! annotation tooling consumes (tool descriptor with per-rule metadata,
//! results with physical locations and stable partial fingerprints). Reading
//! back — the emitter's round-trip test and the committed
//! `lint_baseline.json` — goes through the workspace's one strict JSON
//! parser, `serde::Value::parse_json` (the vendored offline stand-in).
//!
//! ## Baseline semantics
//!
//! The baseline maps a **stable fingerprint** to a count. Token findings
//! fingerprint as `rule|file|message` (messages are line-free by
//! construction); transitive findings carry an explicit line-free key
//! `rule|root|sink|what` so a chain does not churn the baseline every time
//! an unrelated edit shifts line numbers. `Report::gate` subtracts the
//! baselined count per fingerprint; only the excess is *new* and fails CI.
//! `--update-baseline` rewrites the file from the current findings.

use crate::rules;
use crate::{Finding, Report};
use serde::Value;
use std::collections::BTreeMap;

/// Escapes a string for embedding in a JSON document.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a report as a SARIF 2.1.0 log with one run.
pub fn to_sarif(report: &Report) -> String {
    let mut rules_json = String::new();
    for (i, rule) in rules::ALL_RULES.iter().enumerate() {
        if i > 0 {
            rules_json.push(',');
        }
        rules_json.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            esc(rule),
            esc(rules::describe(rule))
        ));
    }
    let mut results = String::new();
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        results.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}],\
             \"partialFingerprints\":{{\"bxLintStable/v1\":\"{}\"}}}}",
            esc(f.rule),
            esc(&f.message),
            esc(&f.file),
            f.line,
            esc(&f.fingerprint())
        ));
    }
    format!(
        "{{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"bx-lint\",\
         \"informationUri\":\"https://example.invalid/bx-lint\",\"rules\":[{rules_json}]}}}},\
         \"results\":[{results}]}}]}}"
    )
}

/// Parses a SARIF document produced by [`to_sarif`] back into findings.
/// Used by the round-trip test and available for downstream tooling.
pub fn parse_sarif(s: &str) -> Result<Vec<Finding>, String> {
    let v = Value::parse_json(s)?;
    let version = v
        .get("version")
        .and_then(|v| v.as_str())
        .ok_or("missing version")?;
    if version != "2.1.0" {
        return Err(format!("unsupported SARIF version {version}"));
    }
    let runs = v
        .get("runs")
        .and_then(|r| r.as_array())
        .ok_or("missing runs")?;
    let mut findings = Vec::new();
    for run in runs {
        let results = run
            .get("results")
            .and_then(|r| r.as_array())
            .ok_or("run missing results")?;
        for r in results {
            let rule_id = r
                .get("ruleId")
                .and_then(|v| v.as_str())
                .ok_or("result missing ruleId")?;
            let rule = rules::ALL_RULES
                .iter()
                .find(|&&k| k == rule_id)
                .copied()
                .ok_or_else(|| format!("unknown ruleId {rule_id}"))?;
            let message = r
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(|t| t.as_str())
                .ok_or("result missing message.text")?
                .to_string();
            let loc = r
                .get("locations")
                .and_then(|l| l.as_array())
                .and_then(|l| l.first())
                .and_then(|l| l.get("physicalLocation"))
                .ok_or("result missing physicalLocation")?;
            let file = loc
                .get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(|u| u.as_str())
                .ok_or("missing artifactLocation.uri")?
                .to_string();
            let line = loc
                .get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(|l| l.as_u64())
                .ok_or("missing region.startLine")? as u32;
            let key = r
                .get("partialFingerprints")
                .and_then(|p| p.get("bxLintStable/v1"))
                .and_then(|k| k.as_str())
                .map(|k| k.to_string());
            findings.push(Finding {
                file,
                line,
                rule,
                message,
                key,
            });
        }
    }
    Ok(findings)
}

/// The committed set of accepted findings, keyed by stable fingerprint.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// `fingerprint -> accepted count`.
    pub counts: BTreeMap<String, u64>,
}

impl Baseline {
    /// Builds a baseline accepting exactly the given findings.
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        let mut counts = BTreeMap::new();
        for f in findings {
            *counts.entry(f.fingerprint()).or_insert(0u64) += 1;
        }
        Baseline { counts }
    }

    /// Parses `{"version":1,"findings":[{"fingerprint":"..","count":N},..]}`.
    pub fn parse(s: &str) -> Result<Baseline, String> {
        let v = Value::parse_json(s)?;
        let version = v
            .get("version")
            .and_then(|v| v.as_u64())
            .ok_or("baseline missing integer version")?;
        if version != 1 {
            return Err(format!("unsupported baseline version {version}"));
        }
        let mut counts = BTreeMap::new();
        for entry in v
            .get("findings")
            .and_then(|f| f.as_array())
            .ok_or("baseline missing findings array")?
        {
            let fp = entry
                .get("fingerprint")
                .and_then(|f| f.as_str())
                .ok_or("baseline entry missing fingerprint")?;
            let count = entry
                .get("count")
                .and_then(|c| c.as_u64())
                .ok_or("baseline entry missing count")?;
            *counts.entry(fp.to_string()).or_insert(0) += count;
        }
        Ok(Baseline { counts })
    }

    /// Serializes the baseline (sorted, one finding per line — diff-stable).
    pub fn emit(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
        for (i, (fp, count)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"fingerprint\": \"{}\", \"count\": {}}}",
                esc(fp),
                count
            ));
        }
        if self.counts.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, msg: &str) -> Finding {
        Finding {
            file: file.into(),
            line,
            rule,
            message: msg.into(),
            key: None,
        }
    }

    #[test]
    fn sarif_round_trips_through_the_parser() {
        let report = Report {
            findings: vec![
                finding(
                    rules::PANIC_FREEDOM,
                    "crates/driver/src/driver.rs",
                    42,
                    "`.unwrap()` in hot path — message with \"quotes\"",
                ),
                Finding {
                    file: "crates/ssd/src/controller.rs".into(),
                    line: 480,
                    rule: rules::TRANSITIVE_PANIC,
                    message:
                        "hot path `Controller::process_available` can reach `.unwrap()` via A -> B"
                            .into(),
                    key: Some(
                        "transitive-panic|Controller::process_available|B::x|`.unwrap()`".into(),
                    ),
                },
            ],
            files_scanned: 2,
            wall_ms: 0,
        };
        let sarif = to_sarif(&report);
        let parsed = parse_sarif(&sarif).expect("round trip");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].rule, rules::PANIC_FREEDOM);
        assert_eq!(parsed[0].line, 42);
        assert_eq!(parsed[0].message, report.findings[0].message);
        assert_eq!(
            parsed[1].key.as_deref(),
            Some("transitive-panic|Controller::process_available|B::x|`.unwrap()`")
        );
        assert_eq!(parsed[1].fingerprint(), report.findings[1].fingerprint());
    }

    #[test]
    fn sarif_carries_rule_metadata_for_every_rule() {
        let report = Report {
            findings: vec![],
            files_scanned: 0,
            wall_ms: 0,
        };
        let v = Value::parse_json(&to_sarif(&report)).unwrap();
        let rules_arr = v.get("runs").unwrap().as_array().unwrap()[0]
            .get("tool")
            .unwrap()
            .get("driver")
            .unwrap()
            .get("rules")
            .unwrap()
            .as_array()
            .unwrap()
            .len();
        assert_eq!(rules_arr, rules::ALL_RULES.len());
    }

    #[test]
    fn baseline_round_trips_and_counts() {
        let findings = vec![
            finding(rules::PANIC_FREEDOM, "a.rs", 1, "m"),
            finding(rules::PANIC_FREEDOM, "a.rs", 9, "m"),
            finding(rules::HASH_ITERATION, "b.rs", 2, "n"),
        ];
        let b = Baseline::from_findings(&findings);
        assert_eq!(b.counts.len(), 2);
        assert_eq!(b.counts["panic-freedom|a.rs|m"], 2);
        let parsed = Baseline::parse(&b.emit()).unwrap();
        assert_eq!(parsed.counts, b.counts);
        let empty = Baseline::default();
        assert_eq!(Baseline::parse(&empty.emit()).unwrap().counts.len(), 0);
    }

    #[test]
    fn baseline_rejects_malformed_documents() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("{\"version\": 2, \"findings\": []}").is_err());
        assert!(Baseline::parse("{\"version\": 1, \"findings\": [{}]}").is_err());
    }
}
