//! NewsWire benchmark: runs one named workload for a fixed wall-clock
//! budget and prints its metrics, the last line being one JSON object.
//!
//! ```text
//! perfbench --workload <e1_feed|membership|churn_revisions> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats untraced runs (setup + window) until the
//! budget is spent and reports the end-to-end metrics, host figures as
//! medians over the runs. With `--trace 1` it repeats pairs of an
//! untraced and a traced run of the same seed and reports the per-layer
//! metrics from the traced runs; the traced run must reproduce the
//! untraced simulated outcome exactly. See `perfbench/README.md`.

mod alloc;
mod stats;
mod timed;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, pct};
use timed::{Profile, Span};
use workloads::{Run, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Untraced runs per `--trace 0` invocation, at least, so host figures are
/// medians of several set-ups and windows even when the budget is short.
const MIN_RUNS: usize = 3;

/// Set-ups per `--trace 0` invocation, at least: when the runs are fewer,
/// set-up-only samples make up the difference. A process's first set-up
/// pays for fresh heap pages, so a median of three would swing with it.
const MIN_SETUPS: usize = 7;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} out of range 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Environment variables that change what the program does. The benchmark
/// pins every setting itself and refuses to run under these.
const REFUSED_ENV: [&str; 2] = ["SIMNET_SHARDS", "NEWSWIRE_DELTAS"];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value, unit }
}

/// The end-to-end metrics of a `--trace 0` invocation. Host times are
/// medians over the set-ups and the runs; simulated figures are the first
/// run's (every run of one seed must agree on them). `peak_rss_mb` is the
/// process's peak after its first run: each invocation is a fresh process
/// running one workload, and later runs would only add the heap the
/// allocator kept.
fn end_to_end(runs: &[Run], setups: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let out = &runs[0].out;
    vec![
        metric("setup_s", median(setups), "s"),
        metric("run_s", median(&runs.iter().map(|r| r.run_s).collect::<Vec<_>>()), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("deliver_p50_s", out.p50_us as f64 / 1e6, "s"),
        metric("deliver_p99_s", out.p99_us as f64 / 1e6, "s"),
        metric("delivered_pct", out.delivered_pct(), "%"),
        metric("wire_mb", out.wire_bytes as f64 / 1e6, "MB"),
        metric("converge_sim_s", out.converge_us.unwrap_or(0) as f64 / 1e6, "s"),
    ]
}

/// The per-layer metrics of one traced run, against its untraced twin.
fn per_layer(plain: &Run, traced: &Run, prof: &Profile) -> Vec<Metric> {
    use obs::ctr::*;
    let out = &traced.out;
    let c = |id| out.ctr(id) as f64;
    let span_s = |s: Span| prof.get(s).secs;
    let span_us = |s: Span| {
        let t = prof.get(s);
        if t.calls == 0 {
            0.0
        } else {
            1e6 * t.secs / t.calls as f64
        }
    };
    let window_s = out.window_us as f64 / 1e6;
    let deliveries = out.ctr(NW_DELIVERED);
    let mut m = vec![
        metric("simnet.sched_s", traced.loop_s - prof.handler_secs() - prof.sizing_secs, "s"),
        metric("simnet.events", out.events as f64, "count"),
        metric("simnet.peak_queue_depth", out.peak_queue_depth as f64, "count"),
        metric("simnet.msgs_dropped", out.msgs_dropped() as f64, "count"),
        metric("astrolabe.gossip_msg_s", span_s(Span::GossipMsg), "s"),
        metric("astrolabe.gossip_msg_calls", prof.get(Span::GossipMsg).calls as f64, "count"),
        metric("astrolabe.gossip_msg_us", span_us(Span::GossipMsg), "us"),
        metric("astrolabe.tick_s", span_s(Span::Tick), "s"),
        metric("astrolabe.tick_us", span_us(Span::Tick), "us"),
        metric("astrolabe.rows_merged", c(GOSSIP_ROWS_MERGED), "count"),
        metric("astrolabe.diff_rows", c(GOSSIP_DIFF_ROWS), "count"),
        metric("astrolabe.agg_recomputes", c(AGG_RECOMPUTES), "count"),
        metric(
            "astrolabe.agg_cache_hit_pct",
            pct(out.ctr(AGG_CACHE_HITS), out.ctr(AGG_CACHE_HITS) + out.ctr(AGG_RECOMPUTES)),
            "%",
        ),
        metric(
            "astrolabe.digest_cache_hit_pct",
            pct(out.ctr(DIGEST_CACHE_HITS), out.ctr(GOSSIP_DIGESTS_SENT)),
            "%",
        ),
        metric(
            "astrolabe.gossip_kb_per_node_s",
            prof.gossip_bytes as f64 / 1024.0 / f64::from(out.nodes) / window_s,
            "KiB/s",
        ),
        metric("amcast.forward_s", span_s(Span::Forward), "s"),
        metric("amcast.drain_s", span_s(Span::Drain), "s"),
        metric("amcast.ack_s", span_s(Span::Ack), "s"),
        metric("amcast.forwards", c(NW_FORWARDS), "count"),
        metric("amcast.peak_queue", out.peak_forward_queue as f64, "count"),
        metric("amcast.ack_retries", c(NW_ACK_RETRIES), "count"),
        metric("amcast.failovers", c(NW_ACK_FAILOVERS), "count"),
        metric("newswire.publish_s", span_s(Span::Publish), "s"),
        metric("newswire.deliver_s", span_s(Span::Deliver), "s"),
        metric("newswire.repair_s", span_s(Span::Repair), "s"),
        metric("newswire.reconcile_s", span_s(Span::Reconcile), "s"),
        metric("newswire.recovery_s", span_s(Span::Recovery), "s"),
        metric("newswire.deliveries", deliveries as f64, "count"),
        metric(
            "newswire.dup_pct",
            pct(out.ctr(NW_DUPLICATES), deliveries + out.ctr(NW_DUPLICATES)),
            "%",
        ),
        metric("newswire.copies_per_delivery", out.copies_per_delivery(), "ratio"),
        metric("newswire.oracle_s", traced.oracle_s, "s"),
        metric("newsml.delta_items", c(DELTA_ITEMS_SENT), "count"),
        metric(
            "newsml.delta_saved_pct",
            pct(out.ctr(DELTA_ITEM_BYTES_SAVED), out.ctr(BYTES_SENT)),
            "%",
        ),
        metric("newsml.delta_fallbacks", c(DELTA_FALLBACK_FULL), "count"),
        metric(
            "filters.bloom_fp_pct",
            pct(out.ctr(NW_BLOOM_FP), deliveries + out.ctr(NW_BLOOM_FP)),
            "%",
        ),
        metric("obs.export_s", traced.export_s, "s"),
        metric("obs.export_bytes", traced.export_bytes as f64, "bytes"),
        metric("alloc.setup_count", plain.alloc_setup as f64, "count"),
        metric("alloc.run_count", plain.alloc_run as f64, "count"),
        metric("alloc.run_mb", plain.alloc_run_bytes as f64 / 1e6, "MB"),
    ];
    for (span, name) in [
        (Span::GossipMsg, "gossip_msg"),
        (Span::Tick, "tick"),
        (Span::Forward, "forward"),
        (Span::Drain, "drain"),
        (Span::Ack, "ack"),
        (Span::Publish, "publish"),
        (Span::Deliver, "deliver"),
        (Span::Repair, "repair"),
        (Span::Reconcile, "reconcile"),
        (Span::Recovery, "recovery"),
    ] {
        m.push(metric(&format!("alloc.{name}_count"), prof.get(span).allocs as f64, "count"));
    }
    m.push(metric("trace.overhead_x", traced.run_s / plain.run_s, "ratio"));
    m.push(metric("trace.accounted_pct", 100.0 * traced.loop_s / traced.run_s, "%"));
    m
}

/// Checks every run makes on its own outcome, beyond the workload's.
fn run_failures(run: &Run) -> Vec<String> {
    let mut f = run.failures.clone();
    if run.out.converge_us.is_none() {
        f.push("not every node's root view counted every node".into());
    }
    if run.out.beyond_p99 < 10 {
        f.push(format!(
            "{} latency samples leave {} beyond the p99; at least 10 are needed",
            run.out.samples, run.out.beyond_p99
        ));
    }
    f
}

/// Self-checks of a traced run against its untraced twin.
fn trace_failures(plain: &Run, traced: &Run, prof: &Profile) -> Vec<String> {
    let mut f = Vec::new();
    let (a, b) = (&plain.out, &traced.out);
    if a.events != b.events {
        f.push(format!("traced run changed simnet.events: {} vs {}", b.events, a.events));
    }
    if a.wire_bytes != b.wire_bytes {
        f.push(format!("traced run changed wire bytes: {} vs {}", b.wire_bytes, a.wire_bytes));
    }
    if (a.samples, a.delivered) != (b.samples, b.delivered) {
        f.push(format!(
            "traced run changed deliveries: {}/{} vs {}/{}",
            b.samples, b.delivered, a.samples, a.delivered
        ));
    }
    if a != b {
        f.push("traced run changed the simulated outcome".into());
    }
    let handlers = prof.handler_secs() + prof.sizing_secs;
    if handlers > traced.loop_s {
        f.push(format!("handler time {handlers:.3}s exceeds run-loop time {:.3}s", traced.loop_s));
    }
    // Outside the run loop the window only schedules inputs and reads
    // results; if that grows past 5% the layers no longer account for it.
    if traced.loop_s < 0.95 * traced.run_s {
        f.push(format!(
            "handlers + scheduler account for {:.1}% of the traced window",
            100.0 * traced.loop_s / traced.run_s
        ));
    }
    f
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set; the benchmark pins it itself");
            return ExitCode::from(2);
        }
    }

    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("config {}", workloads::describe(w));
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let metrics = if args.trace {
        let mut layers: Vec<Vec<Metric>> = Vec::new();
        let mut first: Option<Run> = None;
        while layers.is_empty() || started.elapsed() < budget {
            let plain = workloads::run(w, args.seed, false);
            let traced = workloads::run(w, args.seed, true);
            let prof = timed::snapshot();
            for r in [&plain, &traced] {
                attempted += r.out.expected;
                failed += r.out.expected - r.out.delivered;
                failures.extend(run_failures(r));
            }
            failures.extend(trace_failures(&plain, &traced, &prof));
            if first.as_ref().is_some_and(|f| f.out != plain.out) {
                failures.push("runs of one seed disagree on the simulated outcome".into());
            }
            first.get_or_insert(plain.clone());
            layers.push(per_layer(&plain, &traced, &prof));
        }
        // Medians across pairs; counts are identical in every pair.
        layers[0]
            .iter()
            .enumerate()
            .map(|(i, m)| Metric {
                value: median(&layers.iter().map(|l| l[i].value).collect::<Vec<_>>()),
                ..m.clone()
            })
            .collect()
    } else {
        let mut runs: Vec<Run> = Vec::new();
        let mut peak_rss_mb = 0.0;
        while runs.len() < MIN_RUNS || started.elapsed() < budget {
            let r = workloads::run(w, args.seed, false);
            attempted += r.out.expected;
            failed += r.out.expected - r.out.delivered;
            failures.extend(run_failures(&r));
            if runs.first().is_some_and(|f| f.out != r.out) {
                failures.push("runs of one seed disagree on the simulated outcome".into());
            }
            if runs.is_empty() {
                peak_rss_mb = stats::peak_rss_mb().unwrap_or_else(|| {
                    failures.push("cannot read VmHWM from /proc/self/status".into());
                    0.0
                });
            }
            runs.push(r);
        }
        let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        while setups.len() < MIN_SETUPS {
            setups.push(workloads::setup_only(w, args.seed));
        }
        let out = &runs[0].out;
        println!(
            "runs {} | latency samples {} ({} beyond p99) | delivered {}/{} pairs | events {} | \
             setup_s {:?} | run_s {:?}",
            runs.len(),
            out.samples,
            out.beyond_p99,
            out.delivered,
            out.expected,
            out.events,
            setups,
            runs.iter().map(|r| r.run_s).collect::<Vec<_>>(),
        );
        end_to_end(&runs, &setups, peak_rss_mb)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("{} is not a finite number", m.name));
        }
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric { value: if m.value.is_finite() { m.value } else { 0.0 }, ..m })
        .collect();
    for m in &metrics {
        println!("  {:<36} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    failures.sort();
    failures.dedup();
    for f in &failures {
        println!("FAILED: {f}");
    }
    println!("{}", json_result(failures.is_empty(), attempted.max(1), failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_select_workloads_by_exact_name() {
        let a = parse_args(&argv("--workload e1_feed --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a, Args { workload: Workload::E1Feed, seed: 7, seconds: 10, trace: true });
        assert!(parse_args(&argv("--workload e1 --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload membership --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload membership --seed 7 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload membership --seed x --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn json_result_has_exactly_the_contract_keys() {
        let line = json_result(true, 3, 1, &[metric("run_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
