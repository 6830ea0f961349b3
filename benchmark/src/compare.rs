//! `benchmark compare A.json B.json`: one row per (workload, end-to-end
//! metric) of two results files, judged against the bound
//! `BENCHMARK.json` fixes for the metric.

use jsonio::Json;

use crate::stats::{median, quartile_spread};
use crate::step::Res;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A's own run-to-run spread exceeds the bound: the bound cannot
    /// resolve a difference of its own size.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than the base `a`, as a share of `a`
/// (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(worsening: f64, bound: f64, base_spread: Option<f64>) -> Verdict {
    if base_spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The values a results file holds for one (workload, metric).
fn values(results: &Json, workload: &str, metric: &str) -> Res<Vec<f64>> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Ok(m.get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect::<Result<_, _>>()?)
}

/// The settings two results files must share before their numbers can
/// be compared: run length, seed and hardware threads.
fn same_settings(a: &Json, b: &Json) -> Res<()> {
    for key in ["seconds", "seed", "nproc"] {
        let (va, vb) = (a.get("context")?.get(key)?, b.get("context")?.get(key)?);
        if va != vb {
            return Err(format!("the two results differ in `{key}`: {va:?} vs {vb:?}").into());
        }
    }
    Ok(())
}

/// Prints the table; returns how many rows were `worse`.
pub fn compare(contract: &Json, a: &Json, b: &Json) -> Res<usize> {
    same_settings(a, b)?;
    println!(
        "{:<11} {:<15} {:>13} {:>13} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spreadA"
    );
    let mut worse = 0;
    for w in contract.get("workloads")?.as_arr()? {
        let workload = w.get("name")?.as_str()?;
        for metric in contract.get("end_to_end")?.as_arr()? {
            let name = metric.get("name")?.as_str()?;
            let bound = metric.get("bound")?.as_f64()?;
            let higher = metric.get("better")?.as_str()? == "higher";
            let va = values(a, workload, name)?;
            let vb = values(b, workload, name)?;
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let spread = quartile_spread(&va);
            let verdict = judge(worsening(ma, mb, higher), bound, spread);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{workload:<11} {name:<15} {ma:>13.5} {mb:>13.5} {:>9.4} {bound:>7.3} {:>8}  {}",
                mb / ma,
                spread.map_or("n/a".to_string(), |s| format!("{s:.4}")),
                verdict.label()
            );
        }
        // same seed, so equal digests mean bit-identical losses
        let digest = |r: &Json| -> Res<Json> {
            Ok(r.get("workloads")?
                .get(workload)?
                .get("loss_digest")?
                .clone())
        };
        let (da, db) = (digest(a)?, digest(b)?);
        if da != db {
            println!("{workload:<11} loss_digest changed: {da:?} -> {db:?} (the arithmetic differs; `objective` says by how much)");
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn results_of_different_settings_are_refused() {
        let results = |seconds: f64| {
            let context = Json::obj([
                ("seconds", Json::Num(seconds)),
                ("seed", Json::Num(1.0)),
                ("nproc", Json::Num(2.0)),
            ]);
            Json::obj([("context", context)])
        };
        assert!(same_settings(&results(20.0), &results(20.0)).is_ok());
        assert!(same_settings(&results(20.0), &results(10.0)).is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_base_spread() {
        assert_eq!(judge(0.06, 0.05, Some(0.01)), Verdict::Worse);
        assert_eq!(judge(0.04, 0.05, Some(0.01)), Verdict::Same);
        assert_eq!(judge(-0.06, 0.05, None), Verdict::Better);
        assert_eq!(judge(0.20, 0.05, Some(0.08)), Verdict::Unresolved);
    }
}
