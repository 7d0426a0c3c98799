//! The service-layer chaos campaign end to end: real torn cache files,
//! a live daemon with clients that vanish mid-conversation, and a
//! byte-identity oracle that must hold for every host fault.

use ms_chaos::{run_serve_campaign, ServeCampaign, HOST_PLAN_NAMES};

fn campaign() -> ServeCampaign {
    ServeCampaign { seeds: 1, ..ServeCampaign::default() }
}

#[test]
fn unknown_plans_are_rejected_up_front() {
    let c = ServeCampaign { plans: vec!["torn-cache".into(), "meteor".into()], ..campaign() };
    let err = run_serve_campaign(&c).expect_err("unknown plan must not run");
    assert!(err.contains("meteor"), "{err}");
    assert!(err.contains("conn-drop"), "the error must list the valid plans: {err}");
}

#[test]
fn every_host_fault_plan_converges_to_identical_bytes() {
    let dir = std::env::temp_dir().join(format!("ms-chaos-serve-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let c = ServeCampaign { artifacts_dir: Some(dir.clone()), ..campaign() };
    let report = run_serve_campaign(&c).expect("campaign runs");

    assert_eq!(report.points.len(), HOST_PLAN_NAMES.len(), "one point per plan");
    for p in &report.points {
        assert!(p.failure.is_none(), "{} seed {}: {}", p.plan, p.seed, p.failure.as_ref().unwrap());
        assert!(p.identical, "{} seed {} diverged", p.plan, p.seed);
    }

    // The robustness floor: at least one quarantine-and-recompute.
    assert!(report.cache_quarantined() >= 1, "{:?}", report.points);
    assert!(report.robustness_gaps().is_empty(), "{:?}", report.robustness_gaps());

    // The report is well-formed JSON with the expected schema and totals.
    let json = report.to_json();
    let doc = ms_trace::jsonv::parse(&json).expect(&json);
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("multiscalar-chaos-serve/v2"),
        "{json}"
    );
    let quarantined = doc.get("totals").and_then(|t| t.get("cache_quarantined"));
    assert_eq!(quarantined.and_then(|v| v.as_u64()), Some(report.cache_quarantined()), "{json}");

    // The side-channel artifacts CI `cmp`s: a baseline plus one merged
    // file per point, all byte-identical.
    let baseline = std::fs::read(dir.join("baseline.results.json")).expect("baseline artifact");
    assert!(!baseline.is_empty());
    for p in &report.points {
        let merged = std::fs::read(dir.join(format!("{}-{}.results.json", p.plan, p.seed)))
            .unwrap_or_else(|e| panic!("{}-{}: {e}", p.plan, p.seed));
        assert_eq!(merged, baseline, "{} seed {} artifact differs", p.plan, p.seed);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
