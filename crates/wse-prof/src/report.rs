//! The `--profile out.json` export: attribution + critical path in one
//! hand-rolled JSON document (the build environment has no serde_json; the
//! format follows `wse-trace`'s Chrome exporter idiom).

use std::fmt::Write as _;

use crate::attribution::{bucket_name, Profile, PROFILE_BUCKETS};
use crate::critical_path::CriticalPath;

/// Schema version of the profile document.
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

fn region_json(out: &mut String, profile: &Profile) {
    for i in 0..PROFILE_BUCKETS {
        if i > 0 {
            out.push(',');
        }
        let r = &profile.regions[i];
        let m = &profile.max_pe_regions[i];
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"compute_cycles\":{},\"fabric_cycles\":{},\"dsd_ops\":{},\"marker_events\":{},\"share\":{:.6},\"pacing_pe_cycles\":{}}}",
            bucket_name(i),
            r.counters.compute_cycles,
            r.counters.comm_cycles,
            r.dsd_ops,
            r.marker_events,
            profile.share(i),
            m.cycles(),
        );
    }
}

/// Serializes `profile` and (optionally) its critical path to a JSON string.
pub fn profile_json(profile: &Profile, path: Option<&CriticalPath>) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema_version\":{PROFILE_SCHEMA_VERSION},\"horizon_cycles\":{},\"attributed_cycles\":{},\"num_pes\":{},\"max_pe\":{},\"max_pe_cycles\":{},\"max_pe_compute_cycles\":{},\"max_pe_fabric_cycles\":{},\"unpaired_markers\":{},\"regions\":[",
        profile.horizon,
        profile.attributed_cycles(),
        profile.per_pe_cycles.len(),
        profile.max_pe,
        profile.max_pe_counters.cycles(),
        profile.pacing_compute_cycles(),
        profile.pacing_comm_cycles(),
        profile.unpaired_markers,
    );
    region_json(&mut out, profile);
    out.push_str("],\"critical_path\":");
    match path {
        None => out.push_str("null"),
        Some(cp) => {
            let _ = write!(
                out,
                "{{\"makespan\":{},\"origin_time\":{},\"steps\":{},\"task_cycles\":{},\"hop_cycles\":{},\"wait_cycles\":{},\"on_path_tasks\":{},\"off_path_tasks\":{},\"link_hops\":[{},{},{},{},{}],\"slack_histogram\":[",
                cp.makespan,
                cp.origin_time,
                cp.steps.len(),
                cp.task_cycles,
                cp.hop_cycles,
                cp.wait_cycles,
                cp.on_path_tasks,
                cp.off_path_tasks,
                cp.link_hops[0],
                cp.link_hops[1],
                cp.link_hops[2],
                cp.link_hops[3],
                cp.link_hops[4],
            );
            for (i, (b, n)) in cp.slack_histogram.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"log2_bucket\":{b},\"tasks\":{n}}}");
            }
            out.push_str("]}");
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_trace::{EventRing, Trace, TraceEventKind};

    fn tiny_trace() -> Trace {
        let mut ring = EventRing::new(0, 16);
        ring.record_at(0, TraceEventKind::TaskStart, 1, 0, 7);
        ring.record_at(0, TraceEventKind::DsdOp, 0, 0, 4);
        ring.record_at(4, TraceEventKind::TaskEnd, 1, 0, 4);
        let host = EventRing::new(u32::MAX, 1);
        Trace::from_rings(1, 1, 1, vec![0], 4, &[&ring], &host)
    }

    #[test]
    fn profile_json_is_valid_and_complete() {
        let t = tiny_trace();
        let p = Profile::from_trace(&t);
        let cp = crate::critical_path::critical_path(&t, 1);
        let json = profile_json(&p, cp.as_ref());
        wse_trace::check_json(&json).expect("valid JSON");
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"critical_path\":{"));
        assert!(json.contains("flux-compute"));
    }

    #[test]
    fn no_path_serializes_null() {
        let t = tiny_trace();
        let p = Profile::from_trace(&t);
        let json = profile_json(&p, None);
        assert!(json.contains("\"critical_path\":null"));
        wse_trace::check_json(&json).expect("valid JSON");
    }
}
