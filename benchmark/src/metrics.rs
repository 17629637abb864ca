//! The metric registry: every name the benchmark reports, with its unit,
//! direction and — for the end-to-end metrics — the regression bound.
//! `BENCHMARK.json` at the repository root repeats this table for the
//! driver; a unit test keeps the two identical.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Measured with tracing off, on every workload. `failed_ops` out of
/// `ops_attempted` is the sixth end-to-end number; it must be 0, so it
/// travels as the result line's `failed`/`attempted` fields, not as a
/// bounded metric.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "warm_step_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "time_to_result_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "handwritten_ratio",
        unit: "ratio",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count that must repeat exactly for a given seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Measured in the traced run, on every workload.
pub const PER_LAYER: [PerLayer; 56] = [
    timed("lex.us", "us", "lower"),
    timed("lex.mb_per_s", "MB/s", "higher"),
    count("lex.tokens", "count", "lower"),
    timed("parse.us", "us", "lower"),
    count("parse.items", "count", "lower"),
    timed("elaborate.s", "s", "lower"),
    timed("elaborate.fill_melem_per_s", "Melem/s", "higher"),
    timed("lower.s", "s", "lower"),
    timed("lower.melem_per_s", "Melem/s", "higher"),
    timed("inspect.s", "s", "lower"),
    timed("inspect.melem_per_s", "Melem/s", "higher"),
    count("inspect.schedule_bytes", "bytes", "lower"),
    count("inspect.compression_ratio", "ratio", "higher"),
    timed("fuse.cold_rest_s", "s", "lower"),
    count("fuse.supersteps", "count", "lower"),
    count("fuse.messages_before", "count", "lower"),
    count("fuse.messages_after", "count", "lower"),
    timed("verify.s", "s", "lower"),
    count("verify.plans", "count", "higher"),
    count("verify.diagnostics", "count", "lower"),
    timed("replay.step_ms", "ms", "lower"),
    timed("replay.step_tail_ms", "ms", "lower"),
    count("replay.step_tail_pct", "pct", "higher"),
    timed("replay.melem_per_s", "Melem/s", "higher"),
    timed("replay.compute_ms", "ms", "lower"),
    timed("replay.noncompute_share", "ratio", "lower"),
    count("replay.cache_misses_warm", "count", "lower"),
    timed("replay.roofline_frac", "ratio", "higher"),
    count("exchange.bytes_per_step", "bytes", "lower"),
    count("exchange.messages_per_step", "count", "lower"),
    count("exchange.ghost_bytes_avoided_per_step", "bytes", "higher"),
    timed("exchange.gb_per_s", "GB/s", "higher"),
    timed("exchange.us_per_superstep", "us", "lower"),
    timed("exchange.other_backend_step_ms", "ms", "lower"),
    timed("exchange.channels_vs_shared", "ratio", "higher"),
    timed("gather.to_dense_ms", "ms", "lower"),
    timed("gather.melem_per_s", "Melem/s", "higher"),
    timed("ckpt.write_ms", "ms", "lower"),
    count("ckpt.bytes", "bytes", "lower"),
    timed("ckpt.restore_same_ms", "ms", "lower"),
    timed("ckpt.restore_cross_ms", "ms", "lower"),
    timed("core.owner_lookup_mops", "Mops", "higher"),
    timed("core.local_offset_mops", "Mops", "higher"),
    timed("reference.step_ms", "ms", "lower"),
    timed("reference.copy_step_ms", "ms", "lower"),
    timed("reference.memcpy_gb_per_s", "GB/s", "higher"),
    timed("mem.rss_after_lower_mb", "MB", "lower"),
    timed("mem.rss_after_cold_mb", "MB", "lower"),
    timed("trace.overhead_pct", "%", "lower"),
    timed("cli.wall_s", "s", "lower"),
    timed("cli.delta_pct", "%", "lower"),
    timed("ledger.setup_parts_share", "ratio", "higher"),
    timed("ledger.trip_parts_share", "ratio", "higher"),
    timed("ledger.setup_s", "s", "lower"),
    timed("ledger.warm_total_s", "s", "lower"),
    timed("ledger.time_to_result_s", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WORKLOADS;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
            .chain(WORKLOADS.iter().map(|w| (*w, "count", "lower")))
        {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(better == "lower" || better == "higher", "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` is the driver's copy of this registry.
    #[test]
    fn benchmark_json_repeats_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit"), field(j, "better")),
                (m.name.into(), m.unit.into(), m.better.into())
            );
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<String> = workloads.iter().map(|w| field(w, "name")).collect();
        assert_eq!(names, WORKLOADS);
        assert!(workloads.iter().all(|w| field(w, "why").len() <= 200));
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::Str("benchmark".into())]
        );
        assert_eq!(
            doc.get("claim"),
            None,
            "the contract allows exactly six keys"
        );
    }
}
