//! Instruction-set synthesis (stage 2 of the Figure-1 flow).
//!
//! Builds a [`DecoderConfig`] from a [`Profile`] in three tiers (§3.3):
//!
//! * **BIS** — operations present across all applications (moves, add,
//!   compares, the branches the program uses, loads/stores, traps).
//! * **SIS** — the glue that keeps the set complete: constant construction
//!   (`movi`/`ori`/`lsli`), dictionary moves, indirect jumps with and
//!   without link (far calls go through the target dictionary).
//! * **AIS** — application-specific upgrades chosen by a greedy
//!   utilization-driven optimizer: 3-operand forms for operations whose
//!   uses aren't 2-address compatible, wider literal/displacement fields,
//!   dictionary immediates, predicated moves.
//!
//! The encoding is a **prefix-free variable-length opcode space**: an
//! opcode paired with `b` operand bits occupies `2^b` units of the 2^16
//! instruction space (the Kraft budget). The optimizer greedily spends that
//! budget where the profile says dynamic 1-to-1 coverage is bought
//! cheapest; canonical prefix codes are then assigned, optionally
//! Gray-reordered within each length class to reduce expected fetch-word
//! toggling (the encoding optimization §3.1 alludes to).

use std::collections::{BTreeMap, HashMap};

use fits_isa::{Cond, DpOp, MemOp, ShiftKind};

use crate::decoder::{DecoderConfig, Dictionaries, Layout, MicroOp, OpcodeEntry, RegMap, Tier};
use crate::profile::{signed_bits, unsigned_bits, OpKey, Profile, Stat, ValueHist};

/// Synthesis options (the ablation knobs).
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Gray-reorder opcode values within each length class to reduce
    /// expected fetch toggling.
    pub toggle_aware: bool,
    /// Register-field width: 4 (full window) or 3 (8-register window; used
    /// by the ablation study — programs touching more registers will show
    /// mapping failures).
    pub reg_bits: u8,
    /// Fraction of the 2^16 opcode space the optimizer may spend (1.0 =
    /// whole space). Lower budgets model sharing the space across several
    /// resident applications.
    pub space_budget: f64,
    /// Maximum dictionary index width the optimizer may request.
    pub max_dict_bits: u8,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            toggle_aware: true,
            reg_bits: 4,
            space_budget: 1.0,
            max_dict_bits: 6,
        }
    }
}

/// Entries reserved in the operate dictionary for values discovered during
/// translation (far-branch targets, overflow constants).
pub const RESERVED_DICT_SLOTS: usize = 8;

/// A selected opcode before code assignment.
#[derive(Clone, Debug)]
struct Selected {
    micro: MicroOp,
    layout: Layout,
    tier: Tier,
    /// Dynamic weight (for toggle-aware ordering).
    weight: u64,
}

/// Discriminates layout kinds so a micro-op can hold at most one literal
/// and one dictionary variant simultaneously.
fn layout_kind(l: Layout) -> u8 {
    match l {
        Layout::R3 => 0,
        Layout::R2 => 1,
        Layout::R2Imm { .. } => 2,
        Layout::R2Dict { .. } => 3,
        Layout::RRImm { .. } => 4,
        Layout::RRDict { .. } => 5,
        Layout::MemImm { .. } => 6,
        Layout::MemDict { .. } => 7,
        Layout::Br { .. } => 8,
        Layout::R1 => 9,
        Layout::Trap { .. } => 10,
    }
}

type SelKey = (MicroOp, u8);

/// The synthesis result.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The programmable-decoder configuration.
    pub config: DecoderConfig,
    /// Human-readable synthesis report.
    pub report: SynthReport,
}

/// Diagnostics from the synthesis run.
#[derive(Clone, Debug, Default)]
pub struct SynthReport {
    /// Opcode-space units used, of 65536.
    pub space_used: u64,
    /// Number of AIS upgrades applied.
    pub upgrades: usize,
    /// Predicted average FITS instructions per ARM instruction.
    pub predicted_expansion: f64,
}

// ---------------------------------------------------------------------------
// Coverage precomputation
// ---------------------------------------------------------------------------

/// Per-family coverage tables used by the cost model.
#[derive(Clone, Debug, Default)]
struct FamilyData {
    dyn_: u64,
    /// 2-address compatibility rate (1.0 where not applicable).
    eq_rate: f64,
    /// Literal-field coverage per width 0..=16.
    lit_cov: [f64; 17],
    /// Dictionary coverage per index width 0..=16.
    dict_cov: [f64; 17],
}

fn rank_map(values: &[(u32, Stat)]) -> HashMap<u32, usize> {
    values
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (*v, i))
        .collect()
}

/// Global per-category value histograms, by descending dynamic weight.
/// Built once per synthesis: the cost model ranks values by them and the
/// dictionary stage takes their heads.
struct CategoryHists {
    operate: Vec<(u32, Stat)>,
    mem: Vec<(u32, Stat)>,
    shift: Vec<(u32, Stat)>,
}

impl CategoryHists {
    fn new(profile: &Profile) -> Self {
        fn merged<'a>(hists: impl Iterator<Item = &'a ValueHist>) -> Vec<(u32, Stat)> {
            let mut all = ValueHist::default();
            for hist in hists {
                for (v, s) in hist.by_dynamic_weight() {
                    all.record_weighted(v, s);
                }
            }
            all.by_dynamic_weight()
        }
        CategoryHists {
            operate: merged(profile.operate_imms.values()),
            mem: merged(profile.mem_disps.values()),
            shift: merged(profile.shift_amounts.values()),
        }
    }
}

/// Literal and operate-dictionary coverage of an immediate operand
/// histogram (data-processing and compare immediates share the operate
/// dictionary).
fn operate_coverage(
    fd: &mut FamilyData,
    hist: &ValueHist,
    operate_rank: &HashMap<u32, usize>,
    max_dict_bits: u8,
) {
    let total = hist.total_dyn().max(1) as f64;
    for w in 0..=16u8 {
        fd.lit_cov[w as usize] = hist.dyn_where(|v| w > 0 && unsigned_bits(v) <= w) as f64 / total;
        let cap = 1usize << w.min(max_dict_bits);
        let cap = cap.saturating_sub(if w >= 4 { RESERVED_DICT_SLOTS } else { 0 });
        fd.dict_cov[w as usize] =
            hist.dyn_where(|v| operate_rank.get(&v).is_some_and(|r| *r < cap)) as f64 / total;
    }
}

fn build_family_data(
    profile: &Profile,
    opts: &SynthOptions,
    cats: &CategoryHists,
) -> BTreeMap<OpKey, FamilyData> {
    // Each value's rank in its category's global dictionary order.
    let operate_rank = rank_map(&cats.operate);
    let mem_rank = rank_map(&cats.mem);
    let shift_rank = rank_map(&cats.shift);

    let mut out = BTreeMap::new();
    for (key, stat) in &profile.families {
        let mut fd = FamilyData {
            dyn_: stat.dyn_,
            eq_rate: 1.0,
            ..FamilyData::default()
        };
        match key {
            OpKey::DpReg(op, _) => {
                fd.eq_rate = if op.ignores_rn() {
                    1.0
                } else {
                    profile.two_address_rate(*key)
                };
            }
            OpKey::DpImm(op, _) => {
                fd.eq_rate = if op.ignores_rn() {
                    1.0
                } else {
                    profile.two_address_rate(*key)
                };
                if let Some(hist) = profile.operate_imms.get(key) {
                    operate_coverage(&mut fd, hist, &operate_rank, opts.max_dict_bits);
                }
            }
            OpKey::CmpImm(_) => {
                if let Some(hist) = profile.operate_imms.get(key) {
                    operate_coverage(&mut fd, hist, &operate_rank, opts.max_dict_bits);
                }
            }
            OpKey::Mem(op) => {
                if let Some(hist) = profile.mem_disps.get(op) {
                    let total = hist.total_dyn().max(1) as f64;
                    let scale = disp_scale(*op);
                    for w in 0..=16u8 {
                        fd.lit_cov[w as usize] =
                            hist.dyn_where(|raw| mem_lit_fits(raw as i32, w, scale)) as f64 / total;
                        let cap = 1usize << w.min(opts.max_dict_bits);
                        fd.dict_cov[w as usize] =
                            hist.dyn_where(|v| mem_rank.get(&v).is_some_and(|r| *r < cap)) as f64
                                / total;
                    }
                }
            }
            OpKey::Branch(cond, link) => {
                if let Some(hist) = profile.branch_disps.get(&(*cond, *link)) {
                    let total = hist.total_dyn().max(1) as f64;
                    for w in 0..=16u8 {
                        // ARM word offsets become FITS instruction offsets
                        // with some inflation; leave 30% margin.
                        fd.lit_cov[w as usize] = hist.dyn_where(|raw| {
                            let inflated = (f64::from(raw as i32) * 1.3).abs().ceil() as i64;
                            w > 1 && inflated < (1i64 << (w - 1)) - 2
                        }) as f64
                            / total;
                    }
                }
            }
            OpKey::ShiftImm(kind, _) => {
                if let Some(hist) = profile.shift_amounts.get(kind) {
                    let total = hist.total_dyn().max(1) as f64;
                    for w in 0..=16u8 {
                        fd.lit_cov[w as usize] =
                            hist.dyn_where(|v| w > 0 && unsigned_bits(v) <= w) as f64 / total;
                        let cap = 1usize << w.min(opts.max_dict_bits);
                        fd.dict_cov[w as usize] =
                            hist.dyn_where(|v| shift_rank.get(&v).is_some_and(|r| *r < cap)) as f64
                                / total;
                    }
                }
            }
            OpKey::ShiftReg(..) => {
                fd.eq_rate = profile.two_address_rate(*key);
            }
            _ => {}
        }
        out.insert(*key, fd);
    }
    out
}

/// Field scaling for memory displacements: word/halfword fields are scaled
/// and unsigned; byte fields are signed and unscaled (matching the access
/// patterns compiled code produces).
fn disp_scale(op: MemOp) -> u32 {
    match op.size() {
        4 => 4,
        2 => 2,
        _ => 1,
    }
}

/// Whether a raw displacement fits a `w`-bit literal field under the
/// scaling rules above.
pub(crate) fn mem_lit_fits(disp: i32, w: u8, scale: u32) -> bool {
    if scale == 1 {
        w > 0 && signed_bits(disp) <= w
    } else {
        disp >= 0
            && (disp as u32).is_multiple_of(scale)
            && w > 0
            && unsigned_bits(disp as u32 / scale) <= w
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Average cost in FITS instructions to build an uncovered 32-bit constant
/// with the SIS `movi`/`lsli`/`ori` chain (empirical midpoint).
const CONST_BUILD_COST: f64 = 4.0;

/// The micro-ops whose selected layouts [`family_cost`] reads for `key`.
///
/// This one table drives both the cost model and the AIS affected-family
/// index (its inverse), so a candidate upgrade of micro-op `m` can only
/// change the cost of the families that list `m` here.
/// [`family_matches`] (weight attribution) is a subset of it.
fn cost_deps(key: OpKey) -> [Option<MicroOp>; 2] {
    match key {
        OpKey::DpReg(op, set_flags) => [
            Some(MicroOp::Dp3 { op, set_flags }),
            Some(MicroOp::Dp2Reg { op, set_flags }),
        ],
        // Read as two separate widths: 2-address and 3-address forms.
        OpKey::DpImm(op, set_flags) => [
            Some(MicroOp::Dp2Imm { op, set_flags }),
            Some(MicroOp::Dp3 { op, set_flags }),
        ],
        OpKey::CmpImm(op) => [Some(MicroOp::CmpImm { op }), Some(MicroOp::CmpReg { op })],
        OpKey::Mem(op) => [Some(MicroOp::Mem { op }), None],
        OpKey::Branch(cond, link) => [Some(MicroOp::Branch { cond, link }), None],
        OpKey::ShiftImm(kind, set_flags) => [Some(MicroOp::ShiftImm { kind, set_flags }), None],
        OpKey::PredMov(cond, true) => [Some(MicroOp::PredMovImm { cond }), None],
        OpKey::PredMov(cond, false) => [Some(MicroOp::PredMovReg { cond }), None],
        OpKey::ShiftReg(..) | OpKey::CmpReg(_) | OpKey::Mul | OpKey::BranchReg | OpKey::Swi => {
            [None, None]
        }
    }
}

/// What the selection holds for a set of micro-ops.
#[derive(Clone, Copy, Default)]
struct Widths {
    /// Widest literal field.
    lit: Option<u8>,
    /// Widest dictionary index.
    dict: Option<u8>,
    /// A 3-operand register form is selected.
    has3: bool,
    /// A 2-operand register form is selected.
    has2: bool,
    /// Any entry is selected.
    any: bool,
}

/// Folds the selected entries of `micros` into [`Widths`], one range read
/// per micro-op (a [`SelKey`] orders by micro-op first).
fn widths(sel: &BTreeMap<SelKey, Selected>, micros: &[Option<MicroOp>]) -> Widths {
    let mut out = Widths::default();
    for &m in micros.iter().flatten() {
        for s in sel.range((m, 0)..=(m, u8::MAX)).map(|(_, s)| s) {
            out.any = true;
            match s.layout {
                Layout::R2Imm { w }
                | Layout::RRImm { w }
                | Layout::MemImm { w }
                | Layout::Br { w } => {
                    out.lit = Some(out.lit.map_or(w, |c| c.max(w)));
                }
                Layout::R2Dict { w } | Layout::RRDict { w } | Layout::MemDict { w } => {
                    out.dict = Some(out.dict.map_or(w, |c| c.max(w)));
                }
                Layout::R3 => out.has3 = true,
                Layout::R2 => out.has2 = true,
                _ => {}
            }
        }
    }
    out
}

/// Expected FITS instructions per dynamic use of `key` under `sel`. Reads
/// `sel` only through [`cost_deps`].
fn family_cost(key: OpKey, fd: &FamilyData, sel: &BTreeMap<SelKey, Selected>) -> f64 {
    let deps = cost_deps(key);
    let lit_cov = |w: Option<u8>| w.map_or(0.0, |w| fd.lit_cov[w as usize]);
    let dict_cov = |w: Option<u8>| w.map_or(0.0, |w| fd.dict_cov[w as usize]);
    match key {
        OpKey::DpReg(..) => {
            let w = widths(sel, &deps);
            if w.has3 {
                1.0
            } else if w.has2 {
                2.0 - fd.eq_rate
            } else {
                3.0
            }
        }
        OpKey::DpImm(..) => {
            let w2 = widths(sel, &deps[..1]);
            let w3 = widths(sel, &deps[1..]);
            // 3-address immediate forms cover regardless of rd == rn.
            let cov3 = lit_cov(w3.lit).max(dict_cov(w3.dict));
            let covered2 = lit_cov(w2.lit).max(dict_cov(w2.dict));
            let eq = fd.eq_rate;
            // Best case per use: 3-addr hit (1), else 2-addr hit with
            // rd == rn (1), else 2-addr hit plus mov (2), else build.
            let one = cov3.max(covered2 * eq);
            let two = (covered2 - one).max(0.0);
            let rest = (1.0 - one - two).max(0.0);
            one + 2.0 * two + rest * (CONST_BUILD_COST + 1.0)
        }
        OpKey::CmpImm(_) => {
            let w = widths(sel, &deps);
            let covered = lit_cov(w.lit).max(dict_cov(w.dict));
            covered + (1.0 - covered) * (CONST_BUILD_COST + 1.0)
        }
        OpKey::Mem(_) | OpKey::ShiftImm(..) => {
            let w = widths(sel, &deps);
            let covered = lit_cov(w.lit).max(dict_cov(w.dict));
            covered + (1.0 - covered) * 3.0
        }
        OpKey::Branch(..) => {
            let cov = lit_cov(widths(sel, &deps).lit);
            cov + (1.0 - cov) * 2.0
        }
        OpKey::ShiftReg(..) => 2.0 - fd.eq_rate,
        OpKey::PredMov(..) => {
            if widths(sel, &deps).any {
                1.0
            } else {
                2.0
            }
        }
        OpKey::Mul | OpKey::BranchReg | OpKey::Swi | OpKey::CmpReg(_) => 1.0,
    }
}

/// One family's share of [`total_cost`].
fn family_term(key: OpKey, fd: &FamilyData, sel: &BTreeMap<SelKey, Selected>) -> f64 {
    fd.dyn_ as f64 * family_cost(key, fd, sel)
}

fn total_cost(families: &BTreeMap<OpKey, FamilyData>, sel: &BTreeMap<SelKey, Selected>) -> f64 {
    families
        .iter()
        .map(|(k, fd)| family_term(*k, fd, sel))
        .sum()
}

fn space_of(sel: &BTreeMap<SelKey, Selected>, r: u8) -> u64 {
    sel.values().map(|s| 1u64 << s.layout.operand_bits(r)).sum()
}

// ---------------------------------------------------------------------------
// Synthesis proper
// ---------------------------------------------------------------------------

fn insert(
    sel: &mut BTreeMap<SelKey, Selected>,
    micro: MicroOp,
    layout: Layout,
    tier: Tier,
    weight: u64,
) {
    let key = (micro, layout_kind(layout));
    let entry = Selected {
        micro,
        layout,
        tier,
        weight,
    };
    match sel.get(&key) {
        Some(existing) if layout.operand_bits(4) <= existing.layout.operand_bits(4) => {}
        _ => {
            sel.insert(key, entry);
        }
    }
}

/// The BIS and SIS tiers: every operation the program uses in at least a
/// basic form, plus the glue that keeps the set complete.
fn base_selection(profile: &Profile) -> BTreeMap<SelKey, Selected> {
    let mut sel: BTreeMap<SelKey, Selected> = BTreeMap::new();
    let weight = |k: &OpKey| profile.families.get(k).map_or(0, |s| s.dyn_);

    // ---- BIS: universal base operations -------------------------------
    insert(
        &mut sel,
        MicroOp::Dp2Reg {
            op: DpOp::Mov,
            set_flags: false,
        },
        Layout::R2,
        Tier::Bis,
        profile.dyn_total / 8,
    );
    insert(
        &mut sel,
        MicroOp::Dp2Reg {
            op: DpOp::Add,
            set_flags: false,
        },
        Layout::R2,
        Tier::Bis,
        0,
    );
    insert(&mut sel, MicroOp::Swi, Layout::Trap { w: 4 }, Tier::Bis, 1);
    // Every DP operation the program uses gets at least a 2-address form.
    for key in profile.families.keys() {
        match key {
            OpKey::DpReg(op, sf) | OpKey::DpImm(op, sf) => insert(
                &mut sel,
                MicroOp::Dp2Reg {
                    op: *op,
                    set_flags: *sf,
                },
                Layout::R2,
                Tier::Bis,
                weight(key),
            ),
            OpKey::CmpReg(op) | OpKey::CmpImm(op) => insert(
                &mut sel,
                MicroOp::CmpReg { op: *op },
                Layout::R2,
                Tier::Bis,
                weight(key),
            ),
            OpKey::Mul => insert(&mut sel, MicroOp::Mul3, Layout::R3, Tier::Bis, weight(key)),
            OpKey::Mem(op) => insert(
                &mut sel,
                MicroOp::Mem { op: *op },
                Layout::MemImm { w: 0 },
                Tier::Bis,
                weight(key),
            ),
            OpKey::Branch(cond, link) => {
                insert(
                    &mut sel,
                    MicroOp::Branch {
                        cond: *cond,
                        link: *link,
                    },
                    Layout::Br { w: 4 },
                    Tier::Bis,
                    weight(key),
                );
                // The far-branch fallback needs the inverse condition.
                if *cond != Cond::Al && !link {
                    insert(
                        &mut sel,
                        MicroOp::Branch {
                            cond: cond.inverse(),
                            link: false,
                        },
                        Layout::Br { w: 4 },
                        Tier::Bis,
                        0,
                    );
                }
            }
            OpKey::ShiftImm(kind, sf) => {
                insert(
                    &mut sel,
                    MicroOp::ShiftImm {
                        kind: *kind,
                        set_flags: *sf,
                    },
                    Layout::RRDict { w: 3 },
                    Tier::Bis,
                    weight(key),
                );
                // Completeness fallback for amounts the dictionary cannot
                // hold: the register-amount form.
                insert(
                    &mut sel,
                    MicroOp::ShiftReg {
                        kind: *kind,
                        set_flags: *sf,
                    },
                    Layout::R2,
                    Tier::Sis,
                    0,
                );
            }
            OpKey::ShiftReg(kind, sf) => insert(
                &mut sel,
                MicroOp::ShiftReg {
                    kind: *kind,
                    set_flags: *sf,
                },
                Layout::R2,
                Tier::Bis,
                weight(key),
            ),
            _ => {}
        }
    }
    // An unconditional branch is always required (far-branch glue).
    insert(
        &mut sel,
        MicroOp::Branch {
            cond: Cond::Al,
            link: false,
        },
        Layout::Br { w: 4 },
        Tier::Bis,
        0,
    );
    // Predicated instructions fall back to a branch-around with the
    // inverted condition; make sure both directions exist.
    for cond in &profile.pred_conds {
        for c in [*cond, cond.inverse()] {
            if c != Cond::Al && c != Cond::Nv {
                insert(
                    &mut sel,
                    MicroOp::Branch {
                        cond: c,
                        link: false,
                    },
                    Layout::Br { w: 4 },
                    Tier::Sis,
                    0,
                );
            }
        }
    }
    // Every shift kind used anywhere gets both fallbacks: the
    // register-amount form and a dictionary-amount form (shifted operands
    // on non-move ops expand through these, and the scratch register can
    // only hold one of {amount, shifted value} at a time).
    for kind in &profile.shift_kinds {
        insert(
            &mut sel,
            MicroOp::ShiftReg {
                kind: *kind,
                set_flags: false,
            },
            Layout::R2,
            Tier::Sis,
            0,
        );
        insert(
            &mut sel,
            MicroOp::ShiftImm {
                kind: *kind,
                set_flags: false,
            },
            Layout::RRDict { w: 3 },
            Tier::Sis,
            0,
        );
    }

    // ---- SIS: completeness glue ----------------------------------------
    insert(
        &mut sel,
        MicroOp::Dp2Imm {
            op: DpOp::Mov,
            set_flags: false,
        },
        Layout::R2Imm { w: 4 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::Dp2Imm {
            op: DpOp::Orr,
            set_flags: false,
        },
        Layout::R2Imm { w: 4 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::ShiftImm {
            kind: ShiftKind::Lsl,
            set_flags: false,
        },
        Layout::RRImm { w: 4 },
        Tier::Sis,
        0,
    );
    // Dictionary move: loads any 32-bit configuration constant.
    insert(
        &mut sel,
        MicroOp::Dp2Imm {
            op: DpOp::Mov,
            set_flags: false,
        },
        Layout::R2Dict { w: 5 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::LoadTarget,
        Layout::R2Dict { w: 4 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::BranchReg { link: false },
        Layout::R1,
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::BranchReg { link: true },
        Layout::R1,
        Tier::Sis,
        0,
    );
    sel
}

/// The AIS candidate upgrades, in profile family order.
fn ais_candidates(profile: &Profile, opts: &SynthOptions) -> Vec<(MicroOp, Layout)> {
    let mut candidates: Vec<(MicroOp, Layout)> = Vec::new();
    for key in profile.families.keys() {
        match key {
            OpKey::DpReg(op, sf) => {
                candidates.push((
                    MicroOp::Dp3 {
                        op: *op,
                        set_flags: *sf,
                    },
                    Layout::R3,
                ));
            }
            OpKey::DpImm(op, sf) => {
                for w in [3u8, 4, 5, 6, 8] {
                    candidates.push((
                        MicroOp::Dp2Imm {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::R2Imm { w },
                    ));
                }
                for w in [3u8, 4, 5, 6] {
                    candidates.push((
                        MicroOp::Dp2Imm {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::R2Dict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
                // Figure 2's Operate format: 3-address with an immediate
                // OPRD (literal or dictionary index).
                for w in [2u8, 3, 4] {
                    candidates.push((
                        MicroOp::Dp3 {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::RRImm { w },
                    ));
                    candidates.push((
                        MicroOp::Dp3 {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::RRDict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
            }
            OpKey::CmpImm(op) => {
                for w in [3u8, 4, 5, 6, 8] {
                    candidates.push((MicroOp::CmpImm { op: *op }, Layout::R2Imm { w }));
                }
                for w in [3u8, 4, 5] {
                    candidates.push((
                        MicroOp::CmpImm { op: *op },
                        Layout::R2Dict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
            }
            OpKey::Mem(op) => {
                for w in [2u8, 3, 4, 5, 6] {
                    candidates.push((MicroOp::Mem { op: *op }, Layout::MemImm { w }));
                }
                for w in [2u8, 3, 4] {
                    candidates.push((
                        MicroOp::Mem { op: *op },
                        Layout::MemDict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
            }
            OpKey::Branch(cond, link) => {
                for w in [6u8, 8, 10, 11, 12, 13] {
                    candidates.push((
                        MicroOp::Branch {
                            cond: *cond,
                            link: *link,
                        },
                        Layout::Br { w },
                    ));
                }
            }
            OpKey::ShiftImm(kind, sf) => {
                candidates.push((
                    MicroOp::ShiftImm {
                        kind: *kind,
                        set_flags: *sf,
                    },
                    Layout::RRImm { w: 5 },
                ));
            }
            OpKey::PredMov(cond, imm) => {
                if *imm {
                    candidates.push((MicroOp::PredMovImm { cond: *cond }, Layout::R2Imm { w: 4 }));
                } else {
                    candidates.push((MicroOp::PredMovReg { cond: *cond }, Layout::R2));
                }
            }
            _ => {}
        }
    }
    candidates
}

/// The AIS stage: a greedy utilization-driven optimizer. Each round
/// applies the candidate with the best cost reduction per opcode-space
/// unit that keeps the selection within `budget`, until no candidate
/// reduces the cost. Returns the number of upgrades applied.
///
/// A trial costs only what it changes. [`family_cost`] reads the selection
/// only through [`cost_deps`], so a candidate for micro-op `m` re-prices
/// just the families that list `m` (at most two). The trial inserts the
/// candidate into `sel`, re-prices those families' cached terms, sums all
/// terms in family order and then undoes both. That is the same f64 fold
/// as [`total_cost`]; a `base − old + new` delta would round differently
/// and could flip a greedy tie. Space is exact `u64` arithmetic.
fn ais_greedy(
    families: &BTreeMap<OpKey, FamilyData>,
    candidates: &[(MicroOp, Layout)],
    sel: &mut BTreeMap<SelKey, Selected>,
    budget: u64,
    r: u8,
) -> usize {
    let fams: Vec<(OpKey, &FamilyData)> = families.iter().map(|(k, fd)| (*k, fd)).collect();
    let mut affected: HashMap<MicroOp, Vec<usize>> = HashMap::new();
    for (i, (key, _)) in fams.iter().enumerate() {
        for m in cost_deps(*key).into_iter().flatten() {
            affected.entry(m).or_default().push(i);
        }
    }
    let affected_by = |m: &MicroOp| affected.get(m).map_or(&[][..], Vec::as_slice);
    let reprice = |terms: &mut [f64], sel: &BTreeMap<SelKey, Selected>, hit: &[usize]| {
        for &f in hit {
            let (key, fd) = fams[f];
            terms[f] = family_term(key, fd, sel);
        }
    };
    let mut terms: Vec<f64> = fams
        .iter()
        .map(|(key, fd)| family_term(*key, fd, sel))
        .collect();
    let mut space = space_of(sel, r);
    let mut saved: Vec<f64> = Vec::new();

    let mut upgrades = 0usize;
    loop {
        let base_cost: f64 = terms.iter().sum();
        let mut best: Option<(f64, usize)> = None;
        for (i, (micro, layout)) in candidates.iter().enumerate() {
            let key = (*micro, layout_kind(*layout));
            // Skip no-op "upgrades" (narrower or equal to current).
            let replaced = match sel.get(&key) {
                Some(cur) if layout.operand_bits(r) <= cur.layout.operand_bits(r) => continue,
                Some(cur) => 1u64 << cur.layout.operand_bits(r),
                None => 0,
            };
            let trial_space = space - replaced + (1u64 << layout.operand_bits(r));
            if trial_space > budget {
                continue;
            }
            let hit = affected_by(micro);
            let prev = sel.insert(
                key,
                Selected {
                    micro: *micro,
                    layout: *layout,
                    tier: Tier::Ais,
                    weight: 0,
                },
            );
            saved.clear();
            saved.extend(hit.iter().map(|&f| terms[f]));
            reprice(&mut terms, sel, hit);
            let trial_cost: f64 = terms.iter().sum();
            for (&f, &t) in hit.iter().zip(&saved) {
                terms[f] = t;
            }
            match prev {
                Some(prev) => sel.insert(key, prev),
                None => sel.remove(&key),
            };
            let gain = base_cost - trial_cost;
            if gain <= 0.0 {
                continue;
            }
            // Positive: a candidate is strictly wider than what it replaces.
            let ratio = gain / (trial_space - space) as f64;
            if best.is_none_or(|(b, _)| ratio > b) {
                best = Some((ratio, i));
            }
        }
        let Some((_, i)) = best else { break };
        let (micro, layout) = candidates[i];
        let fam_weight = fams
            .iter()
            .filter(|(k, _)| family_matches(k, &micro))
            .map(|(_, fd)| fd.dyn_)
            .sum();
        let prev = sel.insert(
            (micro, layout_kind(layout)),
            Selected {
                micro,
                layout,
                tier: Tier::Ais,
                weight: fam_weight,
            },
        );
        if let Some(prev) = prev {
            space -= 1u64 << prev.layout.operand_bits(r);
        }
        space += 1u64 << layout.operand_bits(r);
        reprice(&mut terms, sel, affected_by(&micro));
        upgrades += 1;
        if upgrades > 200 {
            break; // safety valve
        }
    }
    upgrades
}

/// Runs instruction-set synthesis.
#[must_use]
pub fn synthesize(profile: &Profile, opts: &SynthOptions) -> Synthesis {
    let r = opts.reg_bits;
    let cats = CategoryHists::new(profile);
    let families = build_family_data(profile, opts, &cats);
    let budget = (65536.0 * opts.space_budget) as u64;
    let mut sel = base_selection(profile);

    // ---- AIS: greedy utilization-driven upgrades ------------------------
    let upgrades = ais_greedy(
        &families,
        &ais_candidates(profile, opts),
        &mut sel,
        budget,
        r,
    );

    // ---- Build dictionaries ---------------------------------------------
    let dict_width = |kind_pred: &dyn Fn(&Selected) -> bool| -> u8 {
        sel.values()
            .filter(|s| kind_pred(s))
            .map(|s| match s.layout {
                Layout::R2Dict { w } | Layout::RRDict { w } | Layout::MemDict { w } => w,
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    };
    let op_dict_w = dict_width(&|s| {
        matches!(s.layout, Layout::R2Dict { .. })
            && matches!(s.micro, MicroOp::Dp2Imm { .. } | MicroOp::CmpImm { .. })
    });
    let mem_dict_w = dict_width(&|s| matches!(s.layout, Layout::MemDict { .. }));
    let shift_dict_w = dict_width(&|s| matches!(s.layout, Layout::RRDict { .. }));

    let op_cap = (1usize << op_dict_w).saturating_sub(RESERVED_DICT_SLOTS);
    let head = |hist: &[(u32, Stat)], n: usize| -> Vec<u32> {
        hist.iter().take(n).map(|(v, _)| *v).collect()
    };
    let operate = head(&cats.operate, op_cap);
    let mem_disp = head(&cats.mem, 1 << mem_dict_w);
    let shift = head(&cats.shift, 1 << shift_dict_w);

    // ---- Canonical (optionally Gray-reordered) code assignment ----------
    let mut entries: Vec<Selected> = sel.into_values().collect();
    let ops = assign_codes(&mut entries, r, opts.toggle_aware);

    let regs = if r == 4 {
        RegMap::full()
    } else {
        // 8-register window: map the most-used physical registers.
        let mut used: Vec<u8> = (0..16u8)
            .filter(|i| profile.regs_used & (1 << i) != 0)
            .collect();
        used.truncate(1 << r);
        while used.len() < (1 << r) {
            used.push(0);
        }
        RegMap {
            field_bits: r,
            map: used,
        }
    };

    let config = DecoderConfig {
        ops,
        regs,
        dicts: Dictionaries {
            operate,
            mem_disp,
            shift,
            target: Vec::new(),
        },
    };
    let space_used = config.ops.iter().map(|e| 1u64 << (16 - e.len)).sum();
    let predicted = {
        let sel_again: BTreeMap<SelKey, Selected> = config
            .ops
            .iter()
            .map(|e| {
                (
                    (e.micro, layout_kind(e.layout)),
                    Selected {
                        micro: e.micro,
                        layout: e.layout,
                        tier: e.tier,
                        weight: 0,
                    },
                )
            })
            .collect();
        total_cost(&families, &sel_again) / profile.dyn_total.max(1) as f64
    };

    Synthesis {
        config,
        report: SynthReport {
            space_used,
            upgrades,
            predicted_expansion: predicted,
        },
    }
}

/// Whether an AIS upgrade of `micro` serves family `key`: the weight
/// attribution behind an upgrade's [`Selected::weight`], which orders
/// opcodes within a length class in [`assign_codes`]. Deliberately
/// narrower than the cost model: every pair it accepts has `micro` in
/// [`cost_deps`]`(key)`, but not the converse (a `Dp3` upgrade also
/// re-prices `DpImm`, yet is attributed to `DpReg` alone).
fn family_matches(key: &OpKey, micro: &MicroOp) -> bool {
    matches!(
        (key, micro),
        (OpKey::DpReg(a, s1), MicroOp::Dp3 { op: b, set_flags: s2 }) if a == b && s1 == s2
    ) || matches!(
        (key, micro),
        (OpKey::DpImm(a, s1), MicroOp::Dp2Imm { op: b, set_flags: s2 }) if a == b && s1 == s2
    ) || matches!(
        (key, micro),
        (OpKey::CmpImm(a), MicroOp::CmpImm { op: b }) if a == b
    ) || matches!(
        (key, micro),
        (OpKey::Mem(a), MicroOp::Mem { op: b }) if a == b
    ) || matches!(
        (key, micro),
        (OpKey::Branch(c1, l1), MicroOp::Branch { cond: c2, link: l2 }) if c1 == c2 && l1 == l2
    ) || matches!(
        (key, micro),
        (OpKey::ShiftImm(k1, s1), MicroOp::ShiftImm { kind: k2, set_flags: s2 }) if k1 == k2 && s1 == s2
    ) || matches!(
        (key, micro),
        (OpKey::PredMov(c1, true), MicroOp::PredMovImm { cond: c2 }) if c1 == c2
    ) || matches!(
        (key, micro),
        (OpKey::PredMov(c1, false), MicroOp::PredMovReg { cond: c2 }) if c1 == c2
    )
}

/// Assigns canonical prefix codes. Entries are sorted by code length
/// (shorter = more operand bits first); within a length class, the
/// assignment order is dynamic weight, and when `toggle_aware` is set the
/// class's code values are visited in binary-reflected Gray order so that
/// frequently co-occurring opcodes differ in few bits.
fn assign_codes(entries: &mut [Selected], r: u8, toggle_aware: bool) -> Vec<OpcodeEntry> {
    entries.sort_by(|a, b| {
        let la = 16 - a.layout.operand_bits(r);
        let lb = 16 - b.layout.operand_bits(r);
        la.cmp(&lb).then(b.weight.cmp(&a.weight))
    });
    let mut out = Vec::with_capacity(entries.len());
    let mut counter: u32 = 0;
    let mut prev_len: u8 = 0;
    let mut i = 0usize;
    while i < entries.len() {
        let len = 16 - entries[i].layout.operand_bits(r);
        // Scale the counter up to this length.
        counter <<= len - prev_len;
        prev_len = len;
        // The whole class of this length:
        let mut j = i;
        while j < entries.len() && 16 - entries[j].layout.operand_bits(r) == len {
            j += 1;
        }
        let class = &entries[i..j];
        let n = (j - i) as u32;
        // Candidate code values for this class: counter..counter+n. In
        // toggle-aware mode visit them in Gray order of the local index
        // (clamped into range by sorting the produced values' gray image).
        let mut values: Vec<u32> = (0..n).map(|k| counter + k).collect();
        if toggle_aware {
            values.sort_by_key(|v| {
                // Order by gray-coded low bits: adjacent assignments differ
                // in fewer bits on average.

                v ^ (v >> 1)
            });
        }
        for (k, e) in class.iter().enumerate() {
            let code_val = values[k];
            debug_assert!(len <= 16);
            out.push(OpcodeEntry {
                code: (code_val as u16) << (16 - u16::from(len)),
                len,
                micro: e.micro,
                layout: e.layout,
                tier: e.tier,
            });
        }
        counter += n;
        i = j;
    }
    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::profile::profile;
    use fits_kernels::kernels::{Kernel, Scale};

    fn crc_profile() -> Profile {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        profile(&program).unwrap()
    }

    /// Every suite kernel's profile at test scale, built once per test
    /// binary.
    pub(super) fn suite_profiles() -> &'static [(Kernel, Profile)] {
        static SUITE: OnceLock<Vec<(Kernel, Profile)>> = OnceLock::new();
        SUITE.get_or_init(|| {
            Kernel::ALL
                .iter()
                .map(|k| (*k, profile(&k.compile(Scale::test()).unwrap()).unwrap()))
                .collect()
        })
    }

    #[test]
    fn attribution_is_a_subset_of_the_cost_dependencies() {
        let opts = SynthOptions::default();
        for (kernel, p) in suite_profiles() {
            let micros: Vec<MicroOp> = ais_candidates(p, &opts)
                .into_iter()
                .map(|(m, _)| m)
                .collect();
            for key in p.families.keys() {
                for m in &micros {
                    if family_matches(key, m) {
                        assert!(
                            cost_deps(*key).contains(&Some(*m)),
                            "{}: {key:?} attributes {m:?} but its cost does not read it",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn synthesis_produces_prefix_free_config() {
        let p = crc_profile();
        let s = synthesize(&p, &SynthOptions::default());
        assert!(s.config.is_prefix_free(), "{}", s.config);
        assert!(s.report.space_used <= 65536);
        assert!(!s.config.ops.is_empty());
    }

    #[test]
    fn tiers_are_all_present() {
        let p = crc_profile();
        let s = synthesize(&p, &SynthOptions::default());
        assert!(s.config.tier_ops(Tier::Bis).count() > 0);
        assert!(s.config.tier_ops(Tier::Sis).count() > 0);
        assert!(s.config.tier_ops(Tier::Ais).count() > 0, "{}", s.config);
    }

    #[test]
    fn predicted_expansion_is_near_one() {
        let p = crc_profile();
        let s = synthesize(&p, &SynthOptions::default());
        assert!(
            s.report.predicted_expansion < 1.3,
            "predicted expansion {}",
            s.report.predicted_expansion
        );
        assert!(s.report.predicted_expansion >= 1.0);
    }

    #[test]
    fn smaller_budget_means_fewer_upgrades() {
        let p = crc_profile();
        let full = synthesize(&p, &SynthOptions::default());
        let tight = synthesize(
            &p,
            &SynthOptions {
                space_budget: 0.4,
                ..SynthOptions::default()
            },
        );
        assert!(tight.report.upgrades <= full.report.upgrades);
        assert!(tight.report.predicted_expansion >= full.report.predicted_expansion - 1e-9);
    }

    #[test]
    fn mem_lit_fits_rules() {
        // Word fields: scaled, unsigned.
        assert!(mem_lit_fits(0, 1, 4));
        assert!(mem_lit_fits(60, 4, 4));
        assert!(!mem_lit_fits(64, 4, 4));
        assert!(mem_lit_fits(64, 5, 4));
        assert!(!mem_lit_fits(-4, 8, 4));
        assert!(!mem_lit_fits(2, 8, 4), "misaligned");
        // Byte fields: signed, unscaled.
        assert!(mem_lit_fits(-2, 3, 1));
        assert!(!mem_lit_fits(-5, 3, 1));
        assert!(mem_lit_fits(-5, 4, 1));
    }

    #[test]
    fn eight_register_window_maps_used_regs() {
        let p = crc_profile();
        let s = synthesize(
            &p,
            &SynthOptions {
                reg_bits: 3,
                ..SynthOptions::default()
            },
        );
        assert_eq!(s.config.regs.field_bits, 3);
        assert_eq!(s.config.regs.map.len(), 8);
    }
}
