//! The clone-and-rescan AIS loop, kept as the test oracle for the
//! incremental [`super::ais_greedy`].
//!
//! Each trial clones the whole selection, re-prices every family, and each
//! family scans the whole selection for its micro-ops. That is
//! O(rounds × candidates × families × selection), which is why the library
//! no longer runs it; the tests below require the two loops to agree bit
//! for bit.

use std::collections::BTreeMap;

use super::{
    ais_candidates, base_selection, build_family_data, family_matches, layout_kind, space_of,
    CategoryHists, FamilyData, SelKey, Selected, SynthOptions, CONST_BUILD_COST,
};
use crate::decoder::{Layout, MicroOp, Tier};
use crate::profile::{OpKey, Profile};

fn selection_widths(
    sel: &BTreeMap<SelKey, Selected>,
    micro_pred: impl Fn(&MicroOp) -> bool,
) -> (Option<u8>, Option<u8>, bool, bool) {
    // (literal width, dict width, has 3-op, has 2-op-reg) for entries whose
    // micro satisfies the predicate.
    let mut lit = None;
    let mut dict = None;
    let mut has3 = false;
    let mut has2 = false;
    for s in sel.values() {
        if !micro_pred(&s.micro) {
            continue;
        }
        match s.layout {
            Layout::R2Imm { w } | Layout::RRImm { w } | Layout::MemImm { w } | Layout::Br { w } => {
                lit = Some(lit.map_or(w, |c: u8| c.max(w)));
            }
            Layout::R2Dict { w } | Layout::RRDict { w } | Layout::MemDict { w } => {
                dict = Some(dict.map_or(w, |c: u8| c.max(w)));
            }
            Layout::R3 => has3 = true,
            Layout::R2 => has2 = true,
            _ => {}
        }
    }
    (lit, dict, has3, has2)
}

/// Expected FITS instructions per dynamic use of `key` under `sel`.
fn family_cost(key: OpKey, fd: &FamilyData, sel: &BTreeMap<SelKey, Selected>) -> f64 {
    match key {
        OpKey::DpReg(op, sf) => {
            let (_, _, has3, has2) = selection_widths(
                sel,
                |m| matches!(m, MicroOp::Dp3{op: o, set_flags: s} | MicroOp::Dp2Reg{op: o, set_flags: s} if *o == op && *s == sf),
            );
            if has3 {
                1.0
            } else if has2 {
                2.0 - fd.eq_rate
            } else {
                3.0
            }
        }
        OpKey::DpImm(op, sf) => {
            let (lit, dict, _, _) = selection_widths(
                sel,
                |m| matches!(m, MicroOp::Dp2Imm{op: o, set_flags: s} if *o == op && *s == sf),
            );
            let (lit3, dict3, _, _) = selection_widths(
                sel,
                |m| matches!(m, MicroOp::Dp3{op: o, set_flags: s} if *o == op && *s == sf),
            );
            let lit_cov = lit.map_or(0.0, |w| fd.lit_cov[w as usize]);
            let dict_cov = dict.map_or(0.0, |w| fd.dict_cov[w as usize]);
            // 3-address immediate forms cover regardless of rd == rn.
            let cov3 = lit3
                .map_or(0.0, |w| fd.lit_cov[w as usize])
                .max(dict3.map_or(0.0, |w| fd.dict_cov[w as usize]));
            let covered2 = lit_cov.max(dict_cov);
            let eq = fd.eq_rate;
            // Best case per use: 3-addr hit (1), else 2-addr hit with
            // rd == rn (1), else 2-addr hit plus mov (2), else build.
            let one = cov3.max(covered2 * eq);
            let two = (covered2 - one).max(0.0);
            let rest = (1.0 - one - two).max(0.0);
            one + 2.0 * two + rest * (CONST_BUILD_COST + 1.0)
        }
        OpKey::CmpImm(op) => {
            let (lit, dict, _, _) = selection_widths(
                sel,
                |m| matches!(m, MicroOp::CmpImm { op: o } | MicroOp::CmpReg { op: o } if *o == op),
            );
            let lit_cov = lit.map_or(0.0, |w| fd.lit_cov[w as usize]);
            let dict_cov = dict.map_or(0.0, |w| fd.dict_cov[w as usize]);
            let covered = lit_cov.max(dict_cov);
            covered + (1.0 - covered) * (CONST_BUILD_COST + 1.0)
        }
        OpKey::Mem(op) => {
            let (lit, dict, _, _) =
                selection_widths(sel, |m| matches!(m, MicroOp::Mem { op: o } if *o == op));
            let lit_cov = lit.map_or(0.0, |w| fd.lit_cov[w as usize]);
            let dict_cov = dict.map_or(0.0, |w| fd.dict_cov[w as usize]);
            let covered = lit_cov.max(dict_cov);
            covered + (1.0 - covered) * 3.0
        }
        OpKey::Branch(cond, link) => {
            let (lit, _, _, _) = selection_widths(
                sel,
                |m| matches!(m, MicroOp::Branch { cond: c, link: l } if *c == cond && *l == link),
            );
            let cov = lit.map_or(0.0, |w| fd.lit_cov[w as usize]);
            cov + (1.0 - cov) * 2.0
        }
        OpKey::ShiftImm(kind, sf) => {
            let (lit, dict, _, _) = selection_widths(
                sel,
                |m| matches!(m, MicroOp::ShiftImm { kind: k, set_flags: s } if *k == kind && *s == sf),
            );
            let lit_cov = lit.map_or(0.0, |w| fd.lit_cov[w as usize]);
            let dict_cov = dict.map_or(0.0, |w| fd.dict_cov[w as usize]);
            let covered = lit_cov.max(dict_cov);
            covered + (1.0 - covered) * 3.0
        }
        OpKey::ShiftReg(..) => 2.0 - fd.eq_rate,
        OpKey::PredMov(cond, imm) => {
            let present = sel.values().any(|s| match (&s.micro, imm) {
                (MicroOp::PredMovImm { cond: c }, true) => *c == cond,
                (MicroOp::PredMovReg { cond: c }, false) => *c == cond,
                _ => false,
            });
            if present {
                1.0
            } else {
                2.0
            }
        }
        OpKey::Mul | OpKey::BranchReg | OpKey::Swi | OpKey::CmpReg(_) => 1.0,
    }
}

pub(super) fn total_cost(
    families: &BTreeMap<OpKey, FamilyData>,
    sel: &BTreeMap<SelKey, Selected>,
) -> f64 {
    families
        .iter()
        .map(|(k, fd)| fd.dyn_ as f64 * family_cost(*k, fd, sel))
        .sum()
}

/// The AIS stage as it ran before the incremental rewrite; the same
/// signature and contract as [`super::ais_greedy`].
pub(super) fn ais_greedy(
    families: &BTreeMap<OpKey, FamilyData>,
    candidates: &[(MicroOp, Layout)],
    sel: &mut BTreeMap<SelKey, Selected>,
    budget: u64,
    r: u8,
) -> usize {
    let mut upgrades = 0usize;
    loop {
        let base_cost = total_cost(families, sel);
        let base_space = space_of(sel, r);
        let mut best: Option<(f64, usize)> = None;
        for (i, (micro, layout)) in candidates.iter().enumerate() {
            let key = (*micro, layout_kind(*layout));
            // Skip no-op "upgrades" (narrower or equal to current).
            if let Some(cur) = sel.get(&key) {
                if layout.operand_bits(r) <= cur.layout.operand_bits(r) {
                    continue;
                }
            }
            let mut trial = sel.clone();
            trial.insert(
                key,
                Selected {
                    micro: *micro,
                    layout: *layout,
                    tier: Tier::Ais,
                    weight: 0,
                },
            );
            let space = space_of(&trial, r);
            if space > budget {
                continue;
            }
            let gain = base_cost - total_cost(families, &trial);
            if gain <= 0.0 {
                continue;
            }
            let dspace = (space - base_space.min(space)).max(1) as f64;
            let ratio = gain / dspace;
            if best.is_none_or(|(b, _)| ratio > b) {
                best = Some((ratio, i));
            }
        }
        let Some((_, i)) = best else { break };
        let (micro, layout) = candidates[i];
        let fam_weight = families
            .iter()
            .filter(|(k, _)| family_matches(k, &micro))
            .map(|(_, fd)| fd.dyn_)
            .sum();
        sel.insert(
            (micro, layout_kind(layout)),
            Selected {
                micro,
                layout,
                tier: Tier::Ais,
                weight: fam_weight,
            },
        );
        upgrades += 1;
        if upgrades > 200 {
            break; // safety valve
        }
    }
    upgrades
}

/// Runs both loops from the same starting point and requires the same
/// final selection, upgrade count and total cost, bit for bit.
fn assert_loops_agree(profile: &Profile, opts: &SynthOptions, label: &str) {
    let families = build_family_data(profile, opts, &CategoryHists::new(profile));
    let candidates = ais_candidates(profile, opts);
    let budget = (65536.0 * opts.space_budget) as u64;
    let mut fast = base_selection(profile);
    let mut slow = fast.clone();
    let n_fast = super::ais_greedy(&families, &candidates, &mut fast, budget, opts.reg_bits);
    let n_slow = ais_greedy(&families, &candidates, &mut slow, budget, opts.reg_bits);
    let entries = |sel: &BTreeMap<SelKey, Selected>| -> Vec<(MicroOp, Layout, Tier, u64)> {
        sel.values()
            .map(|s| (s.micro, s.layout, s.tier, s.weight))
            .collect()
    };
    assert_eq!(n_fast, n_slow, "{label}: upgrade count");
    assert_eq!(entries(&fast), entries(&slow), "{label}: selection");
    assert_eq!(
        super::total_cost(&families, &fast).to_bits(),
        total_cost(&families, &slow).to_bits(),
        "{label}: total cost"
    );
}

/// Every suite kernel at one budget of the fitspareto grid, over its
/// dictionary widths.
fn check_suite_at(budget: f64) {
    for (kernel, profile) in super::tests::suite_profiles() {
        for max_dict_bits in [4u8, 6, 8] {
            let opts = SynthOptions {
                space_budget: budget,
                max_dict_bits,
                ..SynthOptions::default()
            };
            let label = format!("{} budget {budget} dict {max_dict_bits}", kernel.name());
            assert_loops_agree(profile, &opts, &label);
        }
    }
}

#[test]
fn incremental_ais_matches_reference_on_suite_at_full_budget() {
    check_suite_at(1.0);
}

#[test]
fn incremental_ais_matches_reference_on_suite_at_budget_0_7() {
    check_suite_at(0.7);
}

#[test]
fn incremental_ais_matches_reference_on_suite_at_budget_0_45() {
    check_suite_at(0.45);
}

/// Seeded weighted mixes of 1–4 distinct suite profiles, each synthesized
/// at a random point of budget × dictionary width × register bits.
fn check_merged_mixes(seed: u64, count: usize) {
    use fits_rng::StdRng;

    let suite = super::tests::suite_profiles();
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..count {
        let members = rng.gen_range(1..=4usize);
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < members {
            let k = rng.gen_range(0..suite.len());
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        let mix: Vec<(&Profile, f64)> = picked
            .iter()
            .map(|&k| (&suite[k].1, f64::from(rng.gen_range(1..=9u32))))
            .collect();
        let merged = Profile::merge_weighted(&mix).expect("suite mixes merge");
        let opts = SynthOptions {
            space_budget: [1.0, 0.7, 0.45, 0.3][rng.gen_range(0..4usize)],
            max_dict_bits: rng.gen_range(4..=8u8),
            reg_bits: rng.gen_range(3..=4u8),
            ..SynthOptions::default()
        };
        let names: Vec<&str> = picked.iter().map(|&k| suite[k].0.name()).collect();
        let label = format!("mix {case} {names:?} {opts:?}");
        assert_loops_agree(&merged.profile, &opts, &label);
    }
}

#[test]
fn incremental_ais_matches_reference_on_merged_mixes() {
    check_merged_mixes(0x05ee_da15, 32);
}
