//! A COBAYN-like Bayesian-network compiler autotuner (Ashouri et al.,
//! TACO 2016).
//!
//! COBAYN learns, from a training suite, a Bayesian network over
//! *binary* compiler flags conditioned on program features; for a new
//! program it samples promising configurations from the posterior.
//! Following the paper's §4.2.1 setup we:
//!
//! * train on a synthetic **cBench-like suite** (small, mostly serial
//!   kernels) — for each training program, 1000 random binary CVs are
//!   evaluated and the top 100 kept;
//! * extract **static features** (Milepost-GCC-like structural
//!   statistics) and **dynamic features** (MICA-like, measured from a
//!   *serial* instrumented run — MICA cannot handle parallel code, so
//!   dynamic features of OpenMP programs are weighted by serial loop
//!   times and systematically mislead the model, reproducing the
//!   paper's observation that the dynamic/hybrid variants underperform);
//! * at inference, pool the top CVs of the nearest training programs in
//!   feature space, fit a **Chow–Liu tree** Bayesian network over the
//!   33 flag bits, ancestrally sample 1000 CVs, and keep the measured
//!   best.

use ft_compiler::{Compiler, LoopFeatures, MemStride, ProgramIr};
use ft_core::result::{best_so_far, TuningResult};
use ft_core::{
    evaluate_proposals_scored, pareto_points, Candidate, EvalContext, EvalMode, History, Objective,
    Proposal, SearchDriver, SearchStrategy,
};
use ft_flags::rng::{derive_seed, derive_seed_idx, rng_for};
use ft_flags::{Cv, CvPool, FlagSpace};
use ft_machine::Architecture;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which program features drive inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureMode {
    /// Milepost-like static code features.
    Static,
    /// MICA-like dynamic features (serial-only instrumentation).
    Dynamic,
    /// Concatenation of both.
    Hybrid,
}

impl FeatureMode {
    /// Label used in Figure 6.
    pub fn label(self) -> &'static str {
        match self {
            FeatureMode::Static => "static COBAYN",
            FeatureMode::Dynamic => "dynamic COBAYN",
            FeatureMode::Hybrid => "hybrid COBAYN",
        }
    }
}

/// One training observation.
#[derive(Debug, Clone)]
struct TrainingProgram {
    static_features: Vec<f64>,
    dynamic_features: Vec<f64>,
    /// Top-performing binary CVs (value indices 0/1).
    top_cvs: Vec<Cv>,
}

/// A trained COBAYN model.
pub struct Cobayn {
    programs: Vec<TrainingProgram>,
    bin_space: FlagSpace,
    /// Feature normalization (mean, sd) per static feature.
    static_norm: Vec<(f64, f64)>,
    dynamic_norm: Vec<(f64, f64)>,
}

/// Milepost-like static features of a program.
pub fn static_features(ir: &ProgramIr) -> Vec<f64> {
    let loops: Vec<&LoopFeatures> = ir.modules.iter().filter_map(|m| m.features()).collect();
    let n = loops.len().max(1) as f64;
    let mean = |f: &dyn Fn(&LoopFeatures) -> f64| loops.iter().map(|l| f(l)).sum::<f64>() / n;
    vec![
        n,
        mean(&|l| l.ops_per_iter).ln_1p(),
        mean(&|l| l.bytes_per_iter / l.ops_per_iter.max(1.0)),
        mean(&|l| l.divergence),
        loops
            .iter()
            .filter(|l| l.stride == MemStride::Indirect)
            .count() as f64
            / n,
        loops.iter().filter(|l| l.carried_dependence).count() as f64 / n,
        mean(&|l| l.ilp),
        mean(&|l| l.base_code_bytes).ln_1p(),
        mean(&|l| l.fp_fraction),
        mean(&|l| l.write_fraction),
        mean(&|l| l.streaming),
    ]
}

/// MICA-like dynamic features measured from a *serial* run: loop
/// statistics weighted by serial (single-thread) time shares. For
/// serial training kernels this matches reality; for OpenMP programs
/// the serial weighting differs wildly from the parallel profile —
/// which is exactly why the paper's dynamic model underperforms.
pub fn dynamic_features(ir: &ProgramIr) -> Vec<f64> {
    let loops: Vec<&LoopFeatures> = ir.modules.iter().filter_map(|m| m.features()).collect();
    // Serial time proxy: total ops per step, *not* divided by the
    // parallel speedup the loop would get under OpenMP.
    let weights: Vec<f64> = loops.iter().map(|l| l.ops_per_step()).collect();
    let total: f64 = weights.iter().sum::<f64>().max(1.0);
    let wmean = |f: &dyn Fn(&LoopFeatures) -> f64| {
        loops
            .iter()
            .zip(&weights)
            .map(|(l, w)| f(l) * w / total)
            .sum::<f64>()
    };
    vec![
        wmean(&|l| l.ilp),
        wmean(&|l| l.bytes_per_iter / l.ops_per_iter.max(1.0)),
        wmean(&|l| l.divergence),
        wmean(&|l| l.fp_fraction),
        wmean(&|l| f64::from(l.stride == MemStride::Indirect)),
        wmean(&|l| l.write_fraction),
        total.ln(),
    ]
}

pub use ft_workloads::synthetic::cbench_kernel;

impl Cobayn {
    /// Trains the model: `n_programs` synthetic kernels, `samples`
    /// binary CVs each, keeping the top `top`.
    pub fn train(
        arch: &Architecture,
        n_programs: usize,
        samples: usize,
        top: usize,
        seed: u64,
    ) -> Cobayn {
        let bin_space = FlagSpace::icc().binarized();
        let full_space = FlagSpace::icc();
        let mut programs = Vec::with_capacity(n_programs);
        for i in 0..n_programs {
            let ir = cbench_kernel(i, seed);
            let compiler = Compiler::icc(arch.target);
            let ctx = EvalContext::new(
                ir.clone(),
                compiler,
                arch.clone(),
                8,
                derive_seed_idx(seed, i as u64),
            );
            let mut rng = rng_for(seed, &format!("train-cvs-{i}"));
            let bin_cvs: Vec<Cv> = (0..samples).map(|_| bin_space.sample(&mut rng)).collect();
            let lifted: Vec<Cv> = bin_cvs.iter().map(|c| full_space.lift_binary(c)).collect();
            let pool = CvPool::new();
            let proposals: Vec<Proposal> = pool
                .intern_all(&lifted)
                .into_iter()
                .enumerate()
                .map(|(k, id)| {
                    Proposal::new(
                        Candidate::Uniform(id),
                        derive_seed_idx(ctx.noise_root, k as u64),
                    )
                })
                .collect();
            let times: Vec<f64> =
                evaluate_proposals_scored(&ctx, &pool, &proposals, EvalMode::Scalar)
                    .into_iter()
                    .map(|s| s.time)
                    .collect();
            let mut idx: Vec<usize> = (0..samples).collect();
            idx.sort_by(|a, b| times[*a].partial_cmp(&times[*b]).expect("finite"));
            let top_cvs = idx[..top.min(samples)]
                .iter()
                .map(|k| bin_cvs[*k].clone())
                .collect();
            programs.push(TrainingProgram {
                static_features: static_features(&ir),
                dynamic_features: dynamic_features(&ir),
                top_cvs,
            });
        }
        let static_norm = normalization(programs.iter().map(|p| &p.static_features));
        let dynamic_norm = normalization(programs.iter().map(|p| &p.dynamic_features));
        Cobayn {
            programs,
            bin_space,
            static_norm,
            dynamic_norm,
        }
    }

    fn features_for(&self, ir: &ProgramIr, mode: FeatureMode) -> Vec<f64> {
        match mode {
            FeatureMode::Static => static_features(ir),
            FeatureMode::Dynamic => dynamic_features(ir),
            FeatureMode::Hybrid => {
                let mut v = static_features(ir);
                v.extend(dynamic_features(ir));
                v
            }
        }
    }

    fn distance(&self, p: &TrainingProgram, q: &[f64], mode: FeatureMode) -> f64 {
        let (pf, norms): (Vec<f64>, Vec<(f64, f64)>) = match mode {
            FeatureMode::Static => (p.static_features.clone(), self.static_norm.clone()),
            FeatureMode::Dynamic => (p.dynamic_features.clone(), self.dynamic_norm.clone()),
            FeatureMode::Hybrid => {
                let mut v = p.static_features.clone();
                v.extend(p.dynamic_features.clone());
                let mut n = self.static_norm.clone();
                n.extend(self.dynamic_norm.clone());
                (v, n)
            }
        };
        pf.iter()
            .zip(q)
            .zip(&norms)
            .map(|((a, b), (m, s))| {
                let za = (a - m) / s;
                let zb = (b - m) / s;
                (za - zb).powi(2)
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Infers CVs for a new program and measures them: the fastest of
    /// `k` sampled configurations is the result (§4.2.1).
    ///
    /// The measurement runs as a [`SearchStrategy`]: one batch of `k`
    /// posterior samples, plus — only when every sample faulted — a
    /// second single-proposal round measuring the fault-exempt `-O3`
    /// baseline as the shipped fallback.
    pub fn tune(&self, ctx: &EvalContext, mode: FeatureMode, k: usize, seed: u64) -> TuningResult {
        let q = self.features_for(&ctx.ir, mode);
        // Nearest training programs in feature space.
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        order.sort_by(|a, b| {
            self.distance(&self.programs[*a], &q, mode)
                .partial_cmp(&self.distance(&self.programs[*b], &q, mode))
                .expect("finite distance")
        });
        let pool: Vec<&Cv> = order
            .iter()
            .take(5)
            .flat_map(|i| self.programs[*i].top_cvs.iter())
            .collect();
        // Fit a Chow-Liu tree over the pooled flag bits and sample.
        let tree = ChowLiuTree::fit(&pool, self.bin_space.len());
        let mut rng = rng_for(seed, "cobayn-sample");
        let full_space = FlagSpace::icc();
        let cvs: Vec<Cv> = (0..k)
            .map(|_| full_space.lift_binary(&tree.sample(&self.bin_space, &mut rng)))
            .collect();
        let mut strategy = CobaynTune {
            label: mode.label(),
            cvs,
            baseline: ctx.space().baseline(),
            k,
            seed,
            noise_root: ctx.noise_root,
            objective: ctx.objective(),
            phase: 0,
        };
        SearchDriver::new(ctx).run(&mut strategy)
    }
}

/// Winner selection over the first `k` sampled objective keys — the
/// literal pre-driver `min_by` (its tie handling and raw `best_index`
/// are pinned by the golden stream tests; under [`Objective::Time`]
/// every key is the sampled time, so nothing moves).
fn cobayn_best(times: &[f64]) -> (usize, f64) {
    times
        .iter()
        .cloned()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty sample")
}

struct CobaynTune {
    label: &'static str,
    cvs: Vec<Cv>,
    baseline: Cv,
    k: usize,
    seed: u64,
    noise_root: u64,
    objective: Objective,
    /// 0 = sample batch pending, 1 = batch observed (maybe fallback),
    /// 2 = fallback proposed.
    phase: u8,
}

impl CobaynTune {
    /// The objective key of each of the first `k` sampled candidates.
    fn keys(&self, history: &History) -> Vec<f64> {
        history.scores()[..self.k]
            .iter()
            .map(|s| self.objective.key(*s))
            .collect()
    }
}

impl SearchStrategy for CobaynTune {
    fn name(&self) -> &str {
        self.label
    }

    fn propose(&mut self, pool: &CvPool, history: &History) -> Vec<Proposal> {
        match self.phase {
            0 => {
                self.phase = 1;
                pool.intern_all(&self.cvs)
                    .into_iter()
                    .enumerate()
                    .map(|(i, id)| {
                        Proposal::new(
                            Candidate::Uniform(id),
                            derive_seed_idx(self.noise_root, i as u64),
                        )
                    })
                    .collect()
            }
            1 => {
                self.phase = 2;
                let (_, best_key) = cobayn_best(&self.keys(history));
                if best_key.is_finite() {
                    return Vec::new();
                }
                // Every sampled CV faulted (+inf): measure the
                // fault-exempt -O3 baseline rather than shipping an
                // unusable binary.
                vec![Proposal::new(
                    Candidate::Uniform(pool.intern(&self.baseline)),
                    derive_seed_idx(self.seed, 0xBA5E),
                )]
            }
            _ => Vec::new(),
        }
    }

    fn finish(&mut self, ctx: &EvalContext, pool: &CvPool, history: &History) -> TuningResult {
        let times = &history.times()[..self.k];
        let (best_index, best_key) = cobayn_best(&self.keys(history));
        let (best, best_score) = if best_key.is_finite() {
            (history.candidate(best_index), history.scores()[best_index])
        } else {
            (history.candidate(self.k), history.scores()[self.k])
        };
        let front = if self.objective == Objective::Pareto {
            pareto_points(ctx, pool, history)
        } else {
            Vec::new()
        };
        TuningResult {
            algorithm: self.label.to_string(),
            best_time: best_score.time,
            baseline_time: ctx.baseline_time(10),
            assignment: ft_core::search::materialize_candidate(ctx, pool, best),
            best_index,
            history: best_so_far(times),
            evaluations: self.k,
            objective: self.objective,
            best_code_bytes: best_score.code_bytes,
            scores: history.scores().to_vec(),
            front,
        }
    }
}

fn normalization<'a>(rows: impl Iterator<Item = &'a Vec<f64>>) -> Vec<(f64, f64)> {
    let rows: Vec<&Vec<f64>> = rows.collect();
    let dim = rows.first().map_or(0, |r| r.len());
    let n = rows.len().max(1) as f64;
    (0..dim)
        .map(|i| {
            let mean = rows.iter().map(|r| r[i]).sum::<f64>() / n;
            let var = rows.iter().map(|r| (r[i] - mean).powi(2)).sum::<f64>() / n;
            (mean, var.sqrt().max(1e-9))
        })
        .collect()
}

/// A tree-structured Bayesian network over binary flags, learned with
/// the Chow–Liu algorithm (maximum-mutual-information spanning tree).
pub struct ChowLiuTree {
    /// `parent[i]` is the parent flag of flag `i` (`usize::MAX` = root).
    parent: Vec<usize>,
    /// Topological order for ancestral sampling.
    order: Vec<usize>,
    /// `p1[i]` = P(bit i = 1) marginal (used at roots).
    p1: Vec<f64>,
    /// `cpt[i] = [P(i=1 | parent=0), P(i=1 | parent=1)]`.
    cpt: Vec<[f64; 2]>,
}

impl ChowLiuTree {
    /// Fits the tree to observed bit vectors (with Laplace smoothing).
    pub fn fit(observations: &[&Cv], n_bits: usize) -> ChowLiuTree {
        let n = observations.len().max(1) as f64;
        let bit = |cv: &Cv, i: usize| -> f64 { f64::from(cv.get(i)) };
        let p1: Vec<f64> = (0..n_bits)
            .map(|i| (observations.iter().map(|o| bit(o, i)).sum::<f64>() + 1.0) / (n + 2.0))
            .collect();
        // Pairwise mutual information.
        let mut mi = vec![vec![0.0; n_bits]; n_bits];
        for i in 0..n_bits {
            for j in (i + 1)..n_bits {
                let mut joint = [[1.0f64; 2]; 2]; // Laplace prior
                for o in observations {
                    joint[bit(o, i) as usize][bit(o, j) as usize] += 1.0;
                }
                let total: f64 = joint.iter().flatten().sum();
                let mut m = 0.0;
                for a in 0..2 {
                    for b in 0..2 {
                        let pab = joint[a][b] / total;
                        let pa: f64 = (joint[a][0] + joint[a][1]) / total;
                        let pb: f64 = (joint[0][b] + joint[1][b]) / total;
                        m += pab * (pab / (pa * pb)).ln();
                    }
                }
                mi[i][j] = m;
                mi[j][i] = m;
            }
        }
        // Prim's maximum spanning tree rooted at bit 0.
        let mut in_tree = vec![false; n_bits];
        let mut parent = vec![usize::MAX; n_bits];
        let mut order = vec![0usize];
        in_tree[0] = true;
        for _ in 1..n_bits {
            let mut best = (0usize, 0usize, f64::NEG_INFINITY);
            for u in 0..n_bits {
                if !in_tree[u] {
                    continue;
                }
                for v in 0..n_bits {
                    if !in_tree[v] && mi[u][v] > best.2 {
                        best = (u, v, mi[u][v]);
                    }
                }
            }
            parent[best.1] = best.0;
            in_tree[best.1] = true;
            order.push(best.1);
        }
        // Conditional probability tables.
        let mut cpt = vec![[0.5f64; 2]; n_bits];
        for i in 0..n_bits {
            let p = parent[i];
            if p == usize::MAX {
                continue;
            }
            let mut count = [[1.0f64; 2]; 2]; // [parent][child]
            for o in observations {
                count[bit(o, p) as usize][bit(o, i) as usize] += 1.0;
            }
            cpt[i] = [
                count[0][1] / (count[0][0] + count[0][1]),
                count[1][1] / (count[1][0] + count[1][1]),
            ];
        }
        ChowLiuTree {
            parent,
            order,
            p1,
            cpt,
        }
    }

    /// Draws one binary CV by ancestral sampling.
    pub fn sample<R: Rng>(&self, bin_space: &FlagSpace, rng: &mut R) -> Cv {
        let mut values = vec![0u8; self.parent.len()];
        for &i in &self.order {
            let p = self.parent[i];
            let prob = if p == usize::MAX {
                self.p1[i]
            } else {
                self.cpt[i][values[p] as usize]
            };
            values[i] = u8::from(rng.gen_bool(prob.clamp(0.001, 0.999)));
        }
        Cv::new(bin_space, values)
    }
}

/// Convenience: train on the standard 24-kernel suite with the paper's
/// 1000-sample / top-100 protocol (scaled by `scale` for tests).
pub fn train_default(arch: &Architecture, scale: f64, seed: u64) -> Cobayn {
    let samples = ((1000.0 * scale) as usize).max(20);
    let top = ((100.0 * scale) as usize).max(5);
    let n = ((24.0 * scale.max(0.25)) as usize).max(6);
    Cobayn::train(arch, n, samples, top, derive_seed(seed, "cobayn-train"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_outline::outline_with_defaults;
    use ft_workloads::workload_by_name;

    fn ctx(bench: &str) -> EvalContext {
        let arch = Architecture::broadwell();
        let compiler = Compiler::icc(arch.target);
        let w = workload_by_name(bench).unwrap();
        let ir = w.instantiate(w.tuning_input(arch.name));
        let (outlined, _) = outline_with_defaults(&ir, &compiler, &arch, 5, 11);
        EvalContext::new(outlined.ir, Compiler::icc(arch.target), arch, 5, 51)
    }

    #[test]
    fn features_have_stable_dimensions() {
        let ir = cbench_kernel(0, 1);
        assert_eq!(static_features(&ir).len(), 11);
        assert_eq!(dynamic_features(&ir).len(), 7);
    }

    #[test]
    fn cbench_kernels_are_small_and_serialish() {
        for i in 0..10 {
            let ir = cbench_kernel(i, 7);
            assert!((2..=4).contains(&ir.hot_loop_count()));
            let f = ir.modules[0].features().unwrap();
            assert!(f.parallel_fraction < 0.5, "cBench kernels are serial");
        }
    }

    #[test]
    fn chow_liu_learns_a_correlation() {
        // Construct observations where bit 1 copies bit 0.
        let bin = FlagSpace::icc().binarized();
        let mut obs = Vec::new();
        for i in 0..40u8 {
            let mut v = vec![0u8; bin.len()];
            v[0] = i % 2;
            v[1] = i % 2;
            obs.push(Cv::new(&bin, v));
        }
        let refs: Vec<&Cv> = obs.iter().collect();
        let tree = ChowLiuTree::fit(&refs, bin.len());
        // Bits 0 and 1 must be adjacent in the learned tree.
        assert!(
            tree.parent[1] == 0 || tree.parent[0] == 1,
            "correlation missed"
        );
        // Sampling respects the correlation most of the time.
        let mut rng = rng_for(1, "cl");
        let mut agree = 0;
        for _ in 0..200 {
            let s = tree.sample(&bin, &mut rng);
            if s.get(0) == s.get(1) {
                agree += 1;
            }
        }
        assert!(agree > 160, "agreement = {agree}/200");
    }

    #[test]
    fn trained_model_tunes_above_baseline_with_static_features() {
        let arch = Architecture::broadwell();
        let model = train_default(&arch, 0.08, 3);
        let c = ctx("swim");
        let r = model.tune(&c, FeatureMode::Static, 150, 5);
        assert!(
            r.speedup() > 0.98,
            "static COBAYN collapsed: {}",
            r.speedup()
        );
        assert_eq!(r.evaluations, 150);
    }

    #[test]
    fn static_beats_dynamic_on_parallel_code() {
        // The paper's key observation about COBAYN variants.
        let arch = Architecture::broadwell();
        let model = train_default(&arch, 0.08, 3);
        let c = ctx("CloverLeaf");
        let stat = model.tune(&c, FeatureMode::Static, 120, 5);
        let dynv = model.tune(&c, FeatureMode::Dynamic, 120, 5);
        // Allow noise, but static should not lose badly.
        assert!(
            stat.speedup() > dynv.speedup() - 0.02,
            "static {} vs dynamic {}",
            stat.speedup(),
            dynv.speedup()
        );
    }

    #[test]
    fn tune_is_deterministic() {
        let arch = Architecture::broadwell();
        let model = train_default(&arch, 0.05, 3);
        let c = ctx("swim");
        let a = model.tune(&c, FeatureMode::Hybrid, 60, 9);
        let b = model.tune(&c, FeatureMode::Hybrid, 60, 9);
        assert_eq!(a.best_time, b.best_time);
    }
}
