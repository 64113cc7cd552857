//! Multi-application ISA synthesis: one shared FITS instruction set over a
//! kernel *set*, with per-kernel regression bounds.
//!
//! The flow mirrors [`crate::flow::FitsFlow`] for a set: merge the member
//! profiles under a workload-mix weight vector ([`Profile::merge_weighted`]),
//! synthesize one [`DecoderConfig`](crate::DecoderConfig) from the union requirement analysis,
//! translate **every** member program under it (widening the dictionary
//! budget on translation failure, like the per-app flow), and then enforce
//! the regression bound: the shared ISA is rejected if any member kernel's
//! dynamic expansion degrades beyond a configurable epsilon relative to
//! that kernel's *per-app optimum* (its own single-application synthesis
//! under the same options).
//!
//! The quality metric is **dynamic expansion** — expected FITS
//! instructions per source instruction, weighted by the member's own
//! execution counts. It is the core-level proxy for I-cache fetch work
//! (the bench layer prices actual fetch energy on the compiled-replay
//! engine); a shared ISA that keeps expansion within `1 + ε` of the
//! per-app optimum keeps fetch energy within the same band to first
//! order.
//!
//! The module also hosts the objective-space dominance rule
//! ([`pareto_frontier`]) used by the bench-layer Pareto enumerator over
//! (code size, I-cache fetch energy, decoder slots).

use std::fmt;

use fits_isa::Program;

use crate::merge::{profile_hash, MergeError, Merged};
use crate::profile::Profile;
use crate::synth::{synthesize, SynthOptions, Synthesis};
use crate::translate::{translate, TranslateError, Translation};

/// One member of a multi-application synthesis.
#[derive(Clone, Copy, Debug)]
pub struct MultiMember<'a> {
    /// Display name (kernel name in the suite runners).
    pub name: &'a str,
    /// The member's native program.
    pub program: &'a Program,
    /// The member's own profile (used both for the merge and for its
    /// per-app optimum baseline).
    pub profile: &'a Profile,
}

/// Multi-synthesis options.
#[derive(Clone, Debug)]
pub struct MultiOptions {
    /// Synthesis knobs, applied to the shared synthesis *and* to each
    /// member's per-app baseline (so the regression bound compares like
    /// with like).
    pub synth: SynthOptions,
    /// Maximum allowed relative degradation of any member's dynamic
    /// expansion versus its per-app optimum (`0.1` = 10%). Negative
    /// values demand improvement and exist for rejection tests.
    pub epsilon: f64,
    /// Widening iterations when a member fails to translate (each one
    /// raises `max_dict_bits`, as in the per-app flow).
    pub max_iterations: usize,
}

impl Default for MultiOptions {
    fn default() -> Self {
        MultiOptions {
            synth: SynthOptions::default(),
            epsilon: 1.0,
            max_iterations: 3,
        }
    }
}

/// Multi-synthesis failures.
#[derive(Debug)]
pub enum MultiError {
    /// Weight validation or merge arithmetic failed.
    Merge(MergeError),
    /// A member failed to translate even after dictionary widening.
    Translate {
        /// Member name.
        member: String,
        /// The translator's error.
        error: TranslateError,
    },
    /// The shared ISA degrades a member beyond the configured epsilon.
    RegressionBound {
        /// The violating member.
        member: String,
        /// Its dynamic expansion under its per-app optimum.
        solo: f64,
        /// Its dynamic expansion under the shared ISA.
        shared: f64,
        /// The configured bound.
        epsilon: f64,
    },
}

impl fmt::Display for MultiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiError::Merge(e) => write!(f, "merge: {e}"),
            MultiError::Translate { member, error } => {
                write!(f, "member {member} fails to translate: {error}")
            }
            MultiError::RegressionBound {
                member,
                solo,
                shared,
                epsilon,
            } => write!(
                f,
                "member {member} degrades beyond epsilon: shared expansion {shared:.4} vs \
                 per-app optimum {solo:.4} (bound {:.4})",
                solo * (1.0 + epsilon)
            ),
        }
    }
}

impl std::error::Error for MultiError {}

impl From<MergeError> for MultiError {
    fn from(e: MergeError) -> Self {
        MultiError::Merge(e)
    }
}

/// One member's outcome under the accepted shared ISA.
#[derive(Clone, Debug)]
pub struct MemberOutcome {
    /// Member name.
    pub name: String,
    /// The member translated under the shared configuration.
    pub translation: Translation,
    /// Per-app optimum code size in bytes.
    pub solo_code_bytes: usize,
    /// Per-app optimum decoder configuration size in bits.
    pub solo_config_bits: usize,
    /// Dynamic expansion under the per-app optimum.
    pub solo_expansion: f64,
    /// Dynamic expansion under the shared ISA.
    pub shared_expansion: f64,
    /// Relative degradation: `shared/solo - 1` (negative = the shared ISA
    /// is better for this member).
    pub regression: f64,
}

/// An accepted shared-ISA synthesis over a kernel set.
#[derive(Clone, Debug)]
pub struct MultiOutcome {
    /// The merged union profile.
    pub merged: Merged,
    /// Content hash of the merged profile
    /// ([`crate::merge::profile_hash`]).
    pub merged_hash: String,
    /// The shared synthesis.
    pub synthesis: Synthesis,
    /// Per-member outcomes, in input order (zero-weight members dropped).
    pub members: Vec<MemberOutcome>,
    /// The enforced bound.
    pub epsilon: f64,
    /// Dictionary-widening iterations the shared synthesis needed.
    pub iterations: usize,
}

impl MultiOutcome {
    /// Total shared-ISA code size across members, in bytes.
    #[must_use]
    pub fn shared_code_bytes(&self) -> usize {
        self.members
            .iter()
            .map(|m| m.translation.fits.code_bytes())
            .sum()
    }
}

/// Dynamic expansion of a translation: expected FITS instructions per
/// source instruction, weighted by the member's execution counts (1.0 for
/// a perfect 1-to-1 mapping; falls back to the static expansion when the
/// profile carries no execution counts).
#[must_use]
pub fn dynamic_expansion(translation: &Translation, exec_counts: &[u64]) -> f64 {
    let exp = &translation.stats.expansion;
    let total: u128 = exec_counts.iter().map(|&e| u128::from(e)).sum();
    if total == 0 || exec_counts.len() != exp.len() {
        return translation.stats.static_expansion();
    }
    let weighted: u128 = exp
        .iter()
        .zip(exec_counts)
        .map(|(&x, &e)| u128::from(x) * u128::from(e))
        .sum();
    weighted as f64 / total as f64
}

/// Synthesizes under `opts` and translates, widening `max_dict_bits` on
/// translation failure up to `max_iterations` times (the per-app flow's
/// recovery policy).
fn synth_translate(
    profile: &Profile,
    program: &Program,
    opts: &SynthOptions,
    max_iterations: usize,
) -> Result<(Synthesis, Translation, usize), TranslateError> {
    let mut opts = opts.clone();
    let mut last_err = None;
    for iteration in 0..max_iterations.max(1) {
        let synthesis = synthesize(profile, &opts);
        match translate(program, &synthesis.config) {
            Ok(translation) => return Ok((synthesis, translation, iteration + 1)),
            Err(e) => last_err = Some(e),
        }
        opts.max_dict_bits = (opts.max_dict_bits + 1).min(8);
    }
    Err(last_err.expect("at least one iteration ran"))
}

/// Synthesizes one shared FITS ISA over a kernel set and enforces the
/// per-kernel regression bound.
///
/// `weights[i]` is member `i`'s workload-mix weight; zero-weight members
/// are dropped (reported through [`Merged::dropped`] on the outcome's
/// `merged` field).
///
/// # Errors
///
/// [`MultiError::Merge`] for invalid weight vectors,
/// [`MultiError::Translate`] when a member cannot be translated under the
/// shared configuration even after widening, and
/// [`MultiError::RegressionBound`] when the shared ISA degrades any
/// member's dynamic expansion beyond `1 + epsilon` times its per-app
/// optimum.
pub fn synthesize_multi(
    members: &[MultiMember<'_>],
    weights: &[f64],
    options: &MultiOptions,
) -> Result<MultiOutcome, MultiError> {
    if members.len() != weights.len() {
        return Err(MultiError::Merge(MergeError::WeightCount {
            members: members.len(),
            weights: weights.len(),
        }));
    }
    let pairs: Vec<(&Profile, f64)> = members
        .iter()
        .zip(weights)
        .map(|(m, &w)| (m.profile, w))
        .collect();
    let merged = Profile::merge_weighted(&pairs)?;
    let merged_hash = profile_hash(&merged.profile);

    // The shared synthesis must translate *every* retained member; a
    // failure widens the dictionary budget and retries, like the per-app
    // flow. The widening is driven by the worst member.
    let retained: Vec<&MultiMember<'_>> = members
        .iter()
        .zip(&merged.weights)
        .filter(|(_, &w)| w > 0)
        .map(|(m, _)| m)
        .collect();
    let mut opts = options.synth.clone();
    let mut shared: Option<(Synthesis, Vec<Translation>)> = None;
    let mut iterations = 0usize;
    for iteration in 0..options.max_iterations.max(1) {
        iterations = iteration + 1;
        let synthesis = synthesize(&merged.profile, &opts);
        let mut translations = Vec::with_capacity(retained.len());
        let mut failure: Option<(String, TranslateError)> = None;
        for m in &retained {
            match translate(m.program, &synthesis.config) {
                Ok(t) => translations.push(t),
                Err(e) => {
                    failure = Some((m.name.to_owned(), e));
                    break;
                }
            }
        }
        match failure {
            None => {
                shared = Some((synthesis, translations));
                break;
            }
            Some((member, error)) => {
                if iteration + 1 == options.max_iterations.max(1) {
                    return Err(MultiError::Translate { member, error });
                }
                opts.max_dict_bits = (opts.max_dict_bits + 1).min(8);
            }
        }
    }
    let (synthesis, translations) = shared.expect("loop either set shared or returned");

    // Per-member regression bound versus the per-app optimum, computed
    // under the *same* base options so the bound compares like with like.
    let mut outcomes = Vec::with_capacity(retained.len());
    for (m, translation) in retained.iter().zip(translations) {
        let (solo_synth, solo_translation, _) =
            synth_translate(m.profile, m.program, &options.synth, options.max_iterations).map_err(
                |error| MultiError::Translate {
                    member: m.name.to_owned(),
                    error,
                },
            )?;
        let solo = dynamic_expansion(&solo_translation, &m.profile.exec_counts);
        let shared_exp = dynamic_expansion(&translation, &m.profile.exec_counts);
        let regression = if solo > 0.0 {
            shared_exp / solo - 1.0
        } else {
            0.0
        };
        if regression > options.epsilon {
            return Err(MultiError::RegressionBound {
                member: m.name.to_owned(),
                solo,
                shared: shared_exp,
                epsilon: options.epsilon,
            });
        }
        outcomes.push(MemberOutcome {
            name: m.name.to_owned(),
            translation,
            solo_code_bytes: solo_translation.fits.code_bytes(),
            solo_config_bits: solo_synth.config.config_bits(),
            solo_expansion: solo,
            shared_expansion: shared_exp,
            regression,
        });
    }

    Ok(MultiOutcome {
        merged,
        merged_hash,
        synthesis,
        members: outcomes,
        epsilon: options.epsilon,
        iterations,
    })
}

/// Indices of the non-dominated points (the Pareto frontier), in input
/// order. Point `a` dominates `b` when `a` is no worse on every axis and
/// strictly better on at least one (all axes minimized). Duplicate points
/// all survive (neither strictly dominates).
#[must_use]
pub fn pareto_frontier(points: &[[f64; 3]]) -> Vec<usize> {
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    (0..points.len())
        .filter(|&i| !points.iter().any(|p| dominates(p, &points[i])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use fits_kernels::kernels::{Kernel, Scale};

    fn member(kernel: Kernel) -> (String, Program, Profile) {
        let program = kernel.compile(Scale::test()).unwrap();
        let p = profile(&program).unwrap();
        (kernel.name().to_owned(), program, p)
    }

    #[test]
    fn shared_isa_covers_every_member() {
        let data: Vec<_> = [Kernel::Crc32, Kernel::Bitcount, Kernel::Sha]
            .iter()
            .map(|&k| member(k))
            .collect();
        let members: Vec<MultiMember<'_>> = data
            .iter()
            .map(|(name, program, profile)| MultiMember {
                name,
                program,
                profile,
            })
            .collect();
        let out = synthesize_multi(&members, &[1.0, 1.0, 1.0], &MultiOptions::default()).unwrap();
        assert_eq!(out.members.len(), 3);
        assert!(out.synthesis.config.is_prefix_free());
        for m in &out.members {
            // Every member word decodes under its own final config.
            for (j, &w) in m.translation.fits.instrs.iter().enumerate() {
                assert!(
                    crate::decode_word(&m.translation.fits.config, w, j).is_ok(),
                    "{}: word {w:#06x} must decode",
                    m.name
                );
            }
            assert!(m.solo_expansion >= 1.0);
            assert!(m.shared_expansion >= 1.0);
            assert!(m.regression <= out.epsilon);
        }
        assert_eq!(out.merged_hash.len(), 16);
    }

    /// The acceptance-criteria rejection test: an epsilon the shared ISA
    /// cannot possibly meet (demanding 50% *improvement* over each
    /// member's own optimum) must be rejected with a typed error naming
    /// the violating member.
    #[test]
    fn epsilon_violating_config_is_rejected() {
        let data: Vec<_> = [Kernel::Crc32, Kernel::Fft]
            .iter()
            .map(|&k| member(k))
            .collect();
        let members: Vec<MultiMember<'_>> = data
            .iter()
            .map(|(name, program, profile)| MultiMember {
                name,
                program,
                profile,
            })
            .collect();
        let err = synthesize_multi(
            &members,
            &[1.0, 1.0],
            &MultiOptions {
                epsilon: -0.5,
                ..MultiOptions::default()
            },
        )
        .unwrap_err();
        match err {
            MultiError::RegressionBound {
                member,
                solo,
                shared,
                epsilon,
            } => {
                assert!(!member.is_empty());
                assert!(shared > solo * (1.0 + epsilon));
            }
            other => panic!("expected RegressionBound, got {other}"),
        }
    }

    #[test]
    fn weight_errors_propagate_as_typed_merge_errors() {
        let (name, program, p) = member(Kernel::Crc32);
        let members = [MultiMember {
            name: &name,
            program: &program,
            profile: &p,
        }];
        let err = synthesize_multi(&members, &[-1.0], &MultiOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            MultiError::Merge(MergeError::Negative { index: 0 })
        ));
        let err = synthesize_multi(&members, &[1.0, 1.0], &MultiOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            MultiError::Merge(MergeError::WeightCount { .. })
        ));
    }

    #[test]
    fn frontier_is_non_dominated() {
        let points = [
            [1.0, 5.0, 3.0], // frontier
            [2.0, 4.0, 3.0], // frontier
            [2.0, 5.0, 3.0], // dominated by 0 and 1
            [1.0, 5.0, 3.0], // duplicate of 0: survives
            [0.5, 6.0, 4.0], // frontier
        ];
        assert_eq!(pareto_frontier(&points), vec![0, 1, 3, 4]);
        assert!(pareto_frontier(&[]).is_empty());
        assert_eq!(pareto_frontier(&[[1.0, 1.0, 1.0]]), vec![0]);
    }
}
