//! The paper's numbers, kept with their source sentences in
//! `reference/paper.json` and compiled in so a run needs no file lookup.

use serde::Value;

const PAPER_JSON: &str = include_str!("../reference/paper.json");

/// The paper's value for claim `id`.
///
/// # Panics
///
/// Panics on an unknown id or a malformed reference file: both are defects
/// in this package, not run-time conditions.
pub fn claim(id: &str) -> f64 {
    let doc = Value::parse_json(PAPER_JSON).expect("reference/paper.json is valid JSON");
    doc.get("claims")
        .and_then(Value::as_array)
        .expect("reference/paper.json has a claims array")
        .iter()
        .find(|c| c.get("id").and_then(Value::as_str) == Some(id))
        .and_then(|c| c.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("reference/paper.json has no claim {id:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_has_a_value_a_workload_and_a_source_sentence() {
        let doc = Value::parse_json(PAPER_JSON).unwrap();
        let claims = doc.get("claims").and_then(Value::as_array).unwrap();
        assert_eq!(claims.len(), 14);
        for c in claims {
            let id = c.get("id").and_then(Value::as_str).unwrap();
            assert!(claim(id) > 0.0);
            let workload = c.get("workload").and_then(Value::as_str).unwrap();
            assert!(["fig5_qd1", "kv_mixed"].contains(&workload), "{id}");
            assert!(c.get("source").and_then(Value::as_str).unwrap().len() > 20);
        }
        assert_eq!(claim("fig5.traffic_cut_vs_prp_64b_pct"), 96.3);
    }
}
