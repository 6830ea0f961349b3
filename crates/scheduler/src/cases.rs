//! The seven constraints Q1–Q7 and the four scheduling cases (§4.2).
//!
//! For a fixed pipeline degree `r`, the predicates classify which
//! resource dominates the pipelined MoE layer's makespan, and each case
//! has a closed-form time `t_i(r)`:
//!
//! | Case | dominates | `t_moe` |
//! |---|---|---|
//! | 1 | inter-node comm (AlltoAll + Gradient-AllReduce) | `2r·t_a2a + t_gar` |
//! | 2 | expert computation | `2t_a2a + t_ag + t_rs + r·t_exp` |
//! | 3 | AlltoAll alone | `2r·t_a2a + t_ag + t_rs` |
//! | 4 | intra-node comm (AllGather + ReduceScatter) | `2t_a2a + r·(t_ag + t_rs)` |
//!
//! The case conditions partition the configuration space: for any
//! `(model, r)` exactly one case applies (verified by a property test).

use crate::perf::MoePerfModel;

/// Which of the four §4.2 scheduling cases applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaseId {
    /// Inter-node communications dominate (Fig. 4a).
    Case1,
    /// Expert computations dominate (Fig. 4b).
    Case2,
    /// AlltoAll dominates, Gradient-AllReduce negligible (Fig. 4c).
    Case3,
    /// Intra-node communications dominate (Fig. 4d).
    Case4,
}

impl std::fmt::Display for CaseId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseId::Case1 => write!(f, "case1"),
            CaseId::Case2 => write!(f, "case2"),
            CaseId::Case3 => write!(f, "case3"),
            CaseId::Case4 => write!(f, "case4"),
        }
    }
}

/// The truth values of Q1–Q7 at a given `(model, r)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicates {
    /// Q1: `t_a2a,r > t_ag,r` — AlltoAll slower than AllGather per chunk.
    pub q1: bool,
    /// Q2: `r·t_exp,r > 2(r−1)·t_a2a,r` — experts outweigh interior
    /// AlltoAlls.
    pub q2: bool,
    /// Q3: `r·t_exp,r > (r−1)·(t_ag,r + t_rs,r)`.
    pub q3: bool,
    /// Q4: `t_gar > t_ag,r + t_rs,r`.
    pub q4: bool,
    /// Q5: `t_gar > r·t_exp,r − 2(r−1)·t_a2a,r + t_ag,r + t_rs,r`.
    pub q5: bool,
    /// Q6: `t_gar > r·t_ag,r + r·t_rs,r − 2(r−1)·t_a2a,r`.
    pub q6: bool,
    /// Q7: `t_gar > t_ag,r + t_rs,r + r·t_exp,r − 2(r−1)·t_a2a,r`.
    pub q7: bool,
}

impl Predicates {
    /// Evaluates all seven constraints.
    pub fn evaluate(m: &MoePerfModel, r: u32) -> Self {
        Terms::new(m, r).at(m.t_gar)
    }

    /// The case these truth values select (§4.2's four disjunctions).
    pub fn case(&self) -> CaseId {
        let Predicates {
            q1,
            q2,
            q3,
            q4,
            q5,
            q6,
            q7,
        } = *self;
        #[expect(
            clippy::nonminimal_bool,
            reason = "mirrors the paper's four-case predicate table, not its minimised form"
        )]
        let case1 =
            (q1 && !q2 && q4) || (q1 && q2 && q5) || (!q1 && !q3 && q6) || (!q1 && q3 && q7);
        if case1 {
            CaseId::Case1
        } else if (q1 && q2 && !q5) || (!q1 && q3 && !q7) {
            CaseId::Case2
        } else if q1 && !q2 && !q4 {
            CaseId::Case3
        } else {
            // ¬Q1 ∧ ¬Q3 ∧ ¬Q6 — the only remaining combination
            CaseId::Case4
        }
    }
}

/// Everything Q1–Q7 read of `(model, r)` but `t_gar`: the truth of
/// Q1–Q3 and the right-hand sides Q4–Q7 compare `t_gar` against.
struct Terms {
    q1: bool,
    q2: bool,
    q3: bool,
    /// Right-hand sides of Q4, Q5, Q6, Q7.
    gar: [f64; 4],
}

impl Terms {
    fn new(m: &MoePerfModel, r: u32) -> Self {
        let rf = f64::from(r);
        let (a2a, ag, rs, exp) = (m.t_a2a(r), m.t_ag(r), m.t_rs(r), m.t_exp(r));
        Terms {
            q1: a2a > ag,
            q2: rf * exp > 2.0 * (rf - 1.0) * a2a,
            q3: rf * exp > (rf - 1.0) * (ag + rs),
            gar: [
                ag + rs,
                rf * exp - 2.0 * (rf - 1.0) * a2a + ag + rs,
                rf * (ag + rs) - 2.0 * (rf - 1.0) * a2a,
                ag + rs + rf * exp - 2.0 * (rf - 1.0) * a2a,
            ],
        }
    }

    /// The predicates at a Gradient-AllReduce time of `t_gar`.
    fn at(&self, t_gar: f64) -> Predicates {
        let [h4, h5, h6, h7] = self.gar;
        Predicates {
            q1: self.q1,
            q2: self.q2,
            q3: self.q3,
            q4: t_gar > h4,
            q5: t_gar > h5,
            q6: t_gar > h6,
            q7: t_gar > h7,
        }
    }
}

/// How the makespan at one degree depends on the Gradient-AllReduce
/// time `t`: `t_moe(&m.with_t_gar(t), r).0` is `case1 + t` when
/// `t > threshold` and `otherwise` for every other `t`.
///
/// Q1–Q3 and the per-chunk times do not read `t_gar`, so Q1–Q3 pick the
/// one of Q4–Q7 that decides case 1 and `threshold` is its right-hand
/// side; cases 2–4 do not read `t_gar` either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GarStep {
    /// Case 1 holds exactly for `t_gar > threshold`.
    pub threshold: f64,
    /// Case 1's objective less its `t_gar`: `2r·t_a2a,r`.
    pub case1: f64,
    /// The case-2/3/4 objective that applies at or below the threshold.
    pub otherwise: f64,
}

/// The [`GarStep`] of `m` at degree `r` (`m.t_gar` is ignored).
pub fn gar_step(m: &MoePerfModel, r: u32) -> GarStep {
    let terms = Terms::new(m, r);
    let [h4, h5, h6, h7] = terms.gar;
    let threshold = match (terms.q1, terms.q2, terms.q3) {
        (true, false, _) => h4,
        (true, true, _) => h5,
        (false, _, false) => h6,
        (false, _, true) => h7,
    };
    let m0 = m.with_t_gar(0.0);
    GarStep {
        threshold,
        case1: case_objective(&m0, CaseId::Case1, r),
        // every Q4–Q7 false: `case` reads only the one Q1–Q3 picked
        otherwise: case_objective(&m0, terms.at(f64::NEG_INFINITY).case(), r),
    }
}

/// The closed-form makespan `t_i(r)` of `case` (Eqs. for t1–t4, §4.2).
pub fn case_objective(m: &MoePerfModel, case: CaseId, r: u32) -> f64 {
    let rf = f64::from(r);
    match case {
        CaseId::Case1 => 2.0 * rf * m.t_a2a(r) + m.t_gar,
        CaseId::Case2 => 2.0 * m.t_a2a(r) + m.t_ag(r) + m.t_rs(r) + rf * m.t_exp(r),
        CaseId::Case3 => 2.0 * rf * m.t_a2a(r) + m.t_ag(r) + m.t_rs(r),
        CaseId::Case4 => 2.0 * m.t_a2a(r) + rf * (m.t_ag(r) + m.t_rs(r)),
    }
}

/// The makespan estimate at `r`: the objective of the case whose
/// constraints hold there.
pub fn t_moe(m: &MoePerfModel, r: u32) -> (f64, CaseId) {
    let case = Predicates::evaluate(m, r).case();
    (case_objective(m, case, r), case)
}

/// The §5.2 *overlappable window* `t_olp,moe(r)`: how much Gradient-
/// AllReduce time fits inside the MoE layer's pipeline bubbles when
/// `t_gar = 0`. Only cases 2–4 arise at `t_gar = 0` (case 1 requires a
/// dominating Gradient-AllReduce); case 1 input yields 0.
pub fn t_olp_moe(m: &MoePerfModel, r: u32) -> f64 {
    let m0 = m.with_t_gar(0.0);
    let rf = f64::from(r);
    let (a2a, ag, rs, exp) = (m0.t_a2a(r), m0.t_ag(r), m0.t_rs(r), m0.t_exp(r));
    match Predicates::evaluate(&m0, r).case() {
        CaseId::Case2 => (rf * exp + ag + rs - 2.0 * (rf - 1.0) * a2a).max(0.0),
        CaseId::Case3 => ag + rs,
        CaseId::Case4 => (rf * (ag + rs) - 2.0 * (rf - 1.0) * a2a).max(0.0),
        CaseId::Case1 => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::Phase;
    use simnet::{CostModel, OpCosts};

    fn costs() -> OpCosts {
        OpCosts {
            gemm: CostModel::new(0.05, 1.0e-11),
            a2a: CostModel::new(0.2, 3.0e-7),
            all_gather: CostModel::new(0.05, 1.5e-7),
            reduce_scatter: CostModel::new(0.05, 1.5e-7),
            all_reduce: CostModel::new(0.1, 6.0e-7),
        }
    }

    fn model(n_a2a: f64, n_exp: f64, t_gar: f64) -> MoePerfModel {
        MoePerfModel::new(
            &costs(),
            n_a2a,
            n_a2a,
            n_a2a,
            n_exp,
            2,
            Phase::Backward,
            t_gar,
        )
    }

    #[test]
    fn huge_gar_lands_in_case1() {
        let m = model(4.0e6, 1.0e9, 1000.0);
        let (_, case) = t_moe(&m, 4);
        assert_eq!(case, CaseId::Case1);
    }

    #[test]
    fn huge_experts_land_in_case2() {
        let m = model(1.0e5, 1.0e12, 0.0);
        let (_, case) = t_moe(&m, 4);
        assert_eq!(case, CaseId::Case2);
    }

    #[test]
    fn big_a2a_small_rest_lands_in_case3() {
        let m = model(5.0e7, 1.0e6, 0.0);
        let (_, case) = t_moe(&m, 4);
        assert_eq!(case, CaseId::Case3);
    }

    #[test]
    fn big_intra_lands_in_case4() {
        // make AllGather/ReduceScatter expensive relative to a2a
        let mut c = costs();
        c.all_gather = CostModel::new(0.05, 3.0e-6);
        c.reduce_scatter = CostModel::new(0.05, 3.0e-6);
        let m = MoePerfModel::new(&c, 4.0e6, 4.0e6, 4.0e6, 1.0e6, 2, Phase::Forward, 0.0);
        let (_, case) = t_moe(&m, 4);
        assert_eq!(case, CaseId::Case4);
    }

    #[test]
    fn exactly_one_case_for_any_configuration() {
        // the four §4.2 disjunctions are exhaustive and mutually
        // exclusive over all 2^7 predicate combinations that can arise
        let mut seen = std::collections::BTreeSet::new();
        for n_a2a in [1.0e4, 1.0e6, 5.0e7] {
            for n_exp in [1.0e6, 1.0e9, 1.0e12] {
                for t_gar in [0.0, 1.0, 100.0] {
                    for r in [1u32, 2, 4, 16, 64] {
                        let m = model(n_a2a, n_exp, t_gar);
                        let p = Predicates::evaluate(&m, r);
                        // case() is total and deterministic
                        seen.insert(p.case());
                    }
                }
            }
        }
        assert!(seen.len() >= 3, "grid should visit several cases: {seen:?}");
    }

    #[test]
    fn q5_equals_q7_algebraically() {
        for r in [1u32, 3, 9] {
            let m = model(2.0e6, 3.0e9, 7.0);
            let p = Predicates::evaluate(&m, r);
            assert_eq!(p.q5, p.q7);
        }
    }

    #[test]
    fn r1_neutralizes_interior_terms() {
        // at r = 1 the 2(r−1)·t_a2a terms vanish: Q2/Q3 reduce to
        // t_exp > 0 (always true for positive workloads)
        let m = model(1.0e6, 1.0e6, 0.0);
        let p = Predicates::evaluate(&m, 1);
        assert!(p.q2);
        assert!(p.q3);
    }

    #[test]
    fn t_olp_is_zero_when_a2a_saturates() {
        // pure case-3: bubbles are only the AG+RS lead-in/out
        let m = model(5.0e7, 1.0e6, 0.0);
        let olp = t_olp_moe(&m, 4);
        assert!((olp - (m.t_ag(4) + m.t_rs(4))).abs() < 1e-12);
    }

    #[test]
    fn t_olp_grows_with_expert_time_in_case2() {
        let small = t_olp_moe(&model(1.0e5, 1.0e10, 0.0), 2);
        let large = t_olp_moe(&model(1.0e5, 1.0e12, 0.0), 2);
        assert!(large > small);
    }

    #[test]
    fn case_display() {
        assert_eq!(CaseId::Case1.to_string(), "case1");
    }
}
