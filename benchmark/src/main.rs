//! The repo's one benchmark: end-to-end and layer-by-layer numbers for a
//! multi-rank transformer-MoE training step and for the paper's
//! scheduler. See `README.md` here and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! benchmark [--seed N] [--repeat R] [--out F]               every workload, timed then traced
//! benchmark compare A.json B.json                           judge B against A by the bounds
//! ```

mod compare;
mod plan;
mod probes;
mod spec;
mod stats;
mod step;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use jsonio::Json;

use crate::spec::{END_TO_END, PER_LAYER, PLAN_SWEEP, TRAIN_SHAPES, WORKLOADS};
use crate::step::Res;

/// Where traces and the default results file go (the working directory
/// is the repo root, where `BENCHMARK.json` is read from).
const OUT_DIR: &str = "benchmark/out";

/// Steps of the 1-rank run a 2-rank workload's scaling is measured against.
const SCALING_STEPS: usize = 64;

/// Command line: positional words and `--key value` pairs.
struct Cli {
    words: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Res<Cli> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = args.next().ok_or(format!("--{key} needs a value"))?;
                    cli.flags.insert(key.to_string(), value);
                }
                None => cli.words.push(arg),
            }
        }
        Ok(cli)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Res<T> {
        match self.flags.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot read {v:?}").into()),
            None => Ok(default),
        }
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        let v = self.flags.get(key).ok_or(format!("--{key} missing"))?;
        v.parse()
            .map_err(|_| format!("--{key}: cannot read {v:?}").into())
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one run produced.
struct Outcome {
    /// The metrics the run measured, by name.
    metrics: BTreeMap<&'static str, f64>,
    attempted: usize,
    failed: usize,
    /// Gate misses: each fails the run.
    misses: Vec<String>,
    /// Remarks that do not fail the run.
    notes: Vec<String>,
    loss_digest: Option<u64>,
}

/// `--trace 0`: everything driver-side off, end-to-end metrics only.
fn run_timed(workload: &str, seed: u64, seconds: f64) -> Res<Outcome> {
    let timed = match spec::train_shape(workload) {
        Some(shape) => train::run_timed(&shape, seed, seconds)?,
        None => plan::run_timed(seed, seconds)?,
    };
    Ok(Outcome {
        metrics: timed.metrics().into_iter().collect(),
        attempted: timed.item_s.len(),
        failed: timed.failed + timed.misses.len(),
        misses: timed.misses,
        notes: Vec::new(),
        loss_digest: timed.loss_digest,
    })
}

/// `--trace 1`: driver spans, the program's own recorder and the layer
/// probes; per-layer metrics of the layers the workload runs. Half of
/// `seconds` runs untraced (the overhead baseline and the p95 sample), a
/// fifth traced, the rest is probes.
fn run_traced(workload: &str, seed: u64, seconds: f64) -> Res<Outcome> {
    let (untraced_s, traced_s) = (0.5 * seconds, 0.2 * seconds);
    let mut notes = Vec::new();
    let mut m: BTreeMap<&'static str, f64>;
    let (attempted, mut failed, misses, trace_doc, loss_digest);
    match spec::train_shape(workload) {
        Some(shape) => {
            let t = train::run_traced(&shape, seed, untraced_s, traced_s)?;
            for key in &t.missing_spans {
                notes.push(format!("the program emitted no `{key}` span"));
            }
            m = t.metrics;
            m.extend(probes::tensor_probes(&shape, seed, nproc())?);
            m.extend(probes::fsmoe_probes(&shape, seed)?);
            m.extend(probes::models_probes(&shape, seed)?);
            if shape.ranks > 1 {
                m.extend(probes::collectives_probes()?);
                let single = train::short_throughput(&shape.single_rank(), seed, SCALING_STEPS)?;
                m.insert(
                    "models.weak_scaling_eff_2r",
                    t.throughput / (shape.ranks as f64 * single),
                );
            }
            (attempted, failed, misses) = (t.attempted, 0, t.misses);
            trace_doc = trace::to_json(workload, &t.spans);
            loss_digest = Some(t.digest);
        }
        None => {
            let sweep = plan::Sweep::build(seed)?;
            let p = plan::run_traced(&sweep, untraced_s, traced_s)?;
            m = p.metrics;
            m.extend(probes::planning_probes(seed)?);
            (attempted, failed, misses) = (p.attempted, p.failed, p.misses);
            trace_doc = trace::to_json(workload, std::slice::from_ref(&p.spans));
            loss_digest = None;
        }
    }
    m.insert("process.peak_rss_mb", peak_rss_mb()?);
    if !m.contains_key("driver.latency_ms_p95") {
        notes.push("too few untraced items to report a p95 (under 10 samples beyond it)".into());
    }

    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join(format!("trace_{workload}.json"));
    std::fs::write(&path, trace_doc.to_string()?)?;
    notes.push(format!("trace written to {}", path.display()));

    failed += misses.len();
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        misses,
        notes,
        loss_digest,
    })
}

/// Names of `table` the run did not measure.
fn absent(outcome: &Outcome, table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    table
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !outcome.metrics.contains_key(name))
        .collect()
}

/// The contract's result object. The driver wants every metric of the
/// table on the line, so one the workload does not measure reads 0 (the
/// `absent` line above it says which).
fn result_json(outcome: &Outcome, table: &[(&'static str, &'static str)]) -> Res<Json> {
    let mut metrics = BTreeMap::new();
    for (name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        metrics.insert(
            name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(*unit))]),
        );
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.misses.is_empty())),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// One workload, one mode. Prints every metric by name with its unit,
/// then the result object as the last line.
fn single_run(cli: &Cli) -> Res<ExitCode> {
    let workload: String = cli.require("workload")?;
    let seed: u64 = cli.get("seed", 1)?;
    let seconds: f64 = cli.require("seconds")?;
    let traced = cli.get("trace", 0u8)? != 0;
    let ranks = match spec::train_shape(&workload) {
        Some(shape) => shape.ranks,
        None if workload == PLAN_SWEEP => 1,
        None => return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}").into()),
    };

    // `TENSOR_THREADS` is latched once per process, on the first tensor
    // op: pin it before anything runs.
    std::env::set_var("TENSOR_THREADS", (nproc() / ranks).max(1).to_string());

    let (outcome, table): (Outcome, &[(&str, &str)]) = if traced {
        (run_traced(&workload, seed, seconds)?, &PER_LAYER)
    } else {
        (run_timed(&workload, seed, seconds)?, &END_TO_END)
    };
    let result = result_json(&outcome, table)?;

    println!("workload {workload} seed {seed} trace {}", u8::from(traced));
    println!(
        "samples {} (closed loop, {ranks} rank(s), nproc {}, oversubscribed {})",
        outcome.attempted,
        nproc(),
        nproc() < ranks
    );
    for (name, unit) in table {
        if let Some(value) = outcome.metrics.get(name) {
            println!("{name:<40} {value:>18.6} {unit}");
        }
    }
    if traced {
        println!("absent {}", absent(&outcome, table).join(" "));
    }
    if let Some(d) = outcome.loss_digest {
        println!("loss_digest {d:016x}");
    }
    for note in &outcome.notes {
        eprintln!("note: {note}");
    }
    for miss in &outcome.misses {
        eprintln!("FAILED: {miss}");
    }
    println!("{}", result.to_string()?);
    Ok(if outcome.misses.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Where the results come from: recorded next to every number.
fn context_json(seed: u64, seconds: f64, repeat: usize) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("commit", Json::from(env("BENCH_COMMIT"))),
        ("rustc", Json::from(env("BENCH_RUSTC"))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "oversubscribed",
            Json::Bool(TRAIN_SHAPES.iter().any(|s| nproc() < s.ranks)),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::from(repeat)),
    ])
}

/// What a child run reported.
struct ChildRun {
    result: Json,
    loss_digest: Option<String>,
    absent: Vec<String>,
}

/// Runs this executable on one workload in its own process (so
/// `TENSOR_THREADS` can differ per workload) and reads its last line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: u8) -> Res<ChildRun> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8(out.stdout)?;
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or(format!("{workload}: the run printed nothing"))?;
    for line in &lines {
        println!("{line}");
    }
    let result =
        Json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    if !out.status.success() || result.get("correct")? != &Json::Bool(true) {
        return Err(format!("{workload} (seed {seed}, trace {trace}) failed its gates").into());
    }
    let tagged = |tag: &str| lines.iter().find_map(|l| l.strip_prefix(tag));
    Ok(ChildRun {
        result,
        loss_digest: tagged("loss_digest ").map(str::to_string),
        absent: tagged("absent")
            .map(|names| names.split_whitespace().map(str::to_string).collect())
            .unwrap_or_default(),
    })
}

/// The runs of one workload: `repeat` timed ones and the traced one.
struct WorkloadRuns {
    timed: Vec<Json>,
    traced: ChildRun,
}

/// The results document: every workload's end-to-end values (one per
/// repeat, and their median), the per-layer values it measured and the
/// names of those it did not.
fn results_json(context: Json, runs: &BTreeMap<String, WorkloadRuns>) -> Res<Json> {
    let mut workloads = BTreeMap::new();
    for (workload, WorkloadRuns { timed, traced }) in runs {
        let mut e2e = BTreeMap::new();
        for (name, unit) in END_TO_END {
            let values: Vec<f64> = timed
                .iter()
                .map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect::<Result<_, _>>()?;
            e2e.insert(
                name.to_string(),
                Json::obj([
                    ("unit", Json::from(unit)),
                    ("value", Json::Num(stats::median(&mut values.clone()))),
                    ("values", Json::from(values)),
                ]),
            );
        }
        let mut layers = BTreeMap::new();
        for (name, unit) in PER_LAYER {
            if traced.absent.iter().any(|a| a == name) {
                continue;
            }
            let value = traced
                .result
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()?;
            layers.insert(
                name.to_string(),
                Json::obj([("unit", Json::from(unit)), ("value", Json::Num(value))]),
            );
        }
        let sum = |key: &str| -> Res<usize> {
            let mut total = traced.result.get(key)?.as_usize()?;
            for r in timed {
                total += r.get(key)?.as_usize()?;
            }
            Ok(total)
        };
        let absent: Vec<Json> = traced
            .absent
            .iter()
            .map(|a| Json::from(a.as_str()))
            .collect();
        workloads.insert(
            workload.clone(),
            Json::obj([
                ("attempted", Json::from(sum("attempted")?)),
                ("failed", Json::from(sum("failed")?)),
                (
                    "loss_digest",
                    traced.loss_digest.as_deref().map_or(Json::Null, Json::from),
                ),
                ("end_to_end", Json::Obj(e2e)),
                ("per_layer", Json::Obj(layers)),
                ("absent", Json::Arr(absent)),
            ]),
        );
    }
    Ok(Json::obj([
        ("context", context),
        ("workloads", Json::Obj(workloads)),
    ]))
}

/// Every workload, each in its own process: `repeat` timed runs, then
/// one traced run, all of one seed and of the contract's run length;
/// writes one results file.
fn run_all(cli: &Cli) -> Res<ExitCode> {
    let seed: u64 = cli.get("seed", 1)?;
    let repeat: usize = cli.get("repeat", 1)?.max(1);
    let seconds = contract()?.get("run_seconds")?.as_f64()?;
    let out = cli
        .flags
        .get("out")
        .map_or_else(|| Path::new(OUT_DIR).join("results.json"), PathBuf::from);

    let mut runs = BTreeMap::new();
    for workload in WORKLOADS {
        let mut timed = Vec::with_capacity(repeat);
        let mut digests = Vec::with_capacity(repeat + 1);
        for _ in 0..repeat {
            let run = child_run(workload, seed, seconds, 0)?;
            digests.push(run.loss_digest);
            timed.push(run.result);
        }
        let traced = child_run(workload, seed, seconds, 1)?;
        digests.push(traced.loss_digest.clone());
        // same-seed runs in separate processes: bit-identical losses
        if digests.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!(
                "{workload}: runs of seed {seed} disagree on the loss digest: {digests:?}"
            )
            .into());
        }
        runs.insert(workload.to_string(), WorkloadRuns { timed, traced });
    }
    let doc = results_json(context_json(seed, seconds, repeat), &runs)?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, doc.to_pretty_string()?)?;
    println!("results written to {}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// `BENCHMARK.json`, from the working directory (the repo root).
fn contract() -> Res<Json> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    Ok(Json::parse(&text)?)
}

fn compare_files(cli: &Cli) -> Res<ExitCode> {
    let [_, a, b] = cli.words.as_slice() else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let read = |p: &String| -> Res<Json> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let worse = compare::compare(&contract()?, &read(a)?, &read(b)?)?;
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let run = || -> Res<ExitCode> {
        let cli = Cli::parse(std::env::args().skip(1))?;
        if cli.words.first().is_some_and(|w| w == "compare") {
            compare_files(&cli)
        } else if cli.flags.contains_key("workload") {
            single_run(&cli)
        } else {
            run_all(&cli)
        }
    };
    run().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    fn names(list: &Json) -> BTreeSet<String> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    fn keys(obj: &Json) -> BTreeSet<String> {
        match obj {
            Json::Obj(map) => map.keys().cloned().collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }

    fn outcome(metrics: BTreeMap<&'static str, f64>) -> Outcome {
        Outcome {
            metrics,
            attempted: 10,
            failed: 0,
            misses: vec![],
            notes: vec![],
            loss_digest: None,
        }
    }

    /// A results document assembled the way `run_all` does, from traced
    /// runs that measured every per-layer metric but the first.
    fn dummy_results() -> Json {
        let timed = outcome(END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect());
        let traced = outcome(PER_LAYER[1..].iter().map(|(n, _)| (*n, 1.5)).collect());
        let timed = result_json(&timed, &END_TO_END).unwrap();
        let runs = WORKLOADS
            .iter()
            .map(|w| {
                let runs = WorkloadRuns {
                    timed: vec![timed.clone(), timed.clone()],
                    traced: ChildRun {
                        result: result_json(&traced, &PER_LAYER).unwrap(),
                        loss_digest: None,
                        absent: absent(&traced, &PER_LAYER)
                            .into_iter()
                            .map(String::from)
                            .collect(),
                    },
                };
                (w.to_string(), runs)
            })
            .collect();
        results_json(context_json(1, 1.0, 2), &runs).unwrap()
    }

    #[test]
    fn contract_and_results_name_the_same_workloads_and_metrics() {
        let contract = Json::parse(CONTRACT).unwrap();
        let results = dummy_results();
        let workloads = results.get("workloads").unwrap();
        assert_eq!(names(contract.get("workloads").unwrap()), keys(workloads));
        for w in WORKLOADS {
            let run = workloads.get(w).unwrap();
            assert_eq!(
                names(contract.get("end_to_end").unwrap()),
                keys(run.get("end_to_end").unwrap()),
                "{w}"
            );
            // measured or named as absent: every per-layer metric, once
            let mut layers = keys(run.get("per_layer").unwrap());
            for a in run.get("absent").unwrap().as_arr().unwrap() {
                assert!(layers.insert(a.as_str().unwrap().to_string()), "{w}");
            }
            assert_eq!(names(contract.get("per_layer").unwrap()), layers, "{w}");
            assert!(!keys(run.get("per_layer").unwrap()).contains(PER_LAYER[0].0));
        }
    }

    #[test]
    fn contract_units_match_the_tables_and_setup_has_the_widest_bound() {
        let contract = Json::parse(CONTRACT).unwrap();
        let mut units = BTreeMap::new();
        for key in ["end_to_end", "per_layer"] {
            for m in contract.get(key).unwrap().as_arr().unwrap() {
                units.insert(
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                );
            }
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert_eq!(units.get(*name).map(String::as_str), Some(*unit), "{name}");
        }
        let bounds: BTreeMap<&str, f64> = contract
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap(),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let widest = bounds.values().copied().fold(0.0, f64::max);
        assert_eq!(bounds["setup_s"], widest);
        assert!(widest <= 0.25);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut run = outcome(END_TO_END.iter().map(|(n, _)| (*n, 2.0)).collect());
        run.attempted = 0;
        run.misses = vec!["a gate".into()];
        let line = result_json(&run, &END_TO_END).unwrap();
        assert_eq!(
            keys(&line),
            ["attempted", "correct", "failed", "metrics"]
                .into_iter()
                .map(String::from)
                .collect()
        );
        assert_eq!(line.get("correct").unwrap(), &Json::Bool(false));
        assert_eq!(line.get("attempted").unwrap().as_usize().unwrap(), 1);
    }

    #[test]
    fn an_unmeasured_metric_is_named_absent_and_reads_zero_on_the_line() {
        let run = outcome(PER_LAYER[1..].iter().map(|(n, _)| (*n, 2.0)).collect());
        assert_eq!(absent(&run, &PER_LAYER), [PER_LAYER[0].0]);
        let line = result_json(&run, &PER_LAYER).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics).len(), PER_LAYER.len());
        let value = |name| metrics.get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(value(PER_LAYER[0].0).unwrap(), 0.0);
        assert_eq!(value(PER_LAYER[1].0).unwrap(), 2.0);
    }
}
