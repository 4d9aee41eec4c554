//! LR(0) automaton construction and LALR(1) lookahead computation.
//!
//! Lookaheads are computed by the spontaneous-generation/propagation
//! method (Dragon book §4.7.5): for each kernel item, an LR(1) closure
//! seeded with a dummy lookahead discovers which target kernel items
//! receive lookaheads *spontaneously* and which *propagate* from the
//! source; a fixpoint over the propagation graph then yields full LALR(1)
//! lookahead sets, from which reduce actions are derived.

use std::collections::{BTreeMap, HashMap};

/// Encoded symbol: `< num_terminals` is a terminal, otherwise a
/// nonterminal offset by the terminal count.
pub type Sym = u32;

/// A fixed-capacity bitset over terminal indices (plus the dummy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub fn new(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Membership test (used by tests and debugging).
    #[allow(dead_code)]
    pub fn contains(&self, i: u32) -> bool {
        let (w, b) = ((i / 64) as usize, i % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Unions `other` into `self`; true if anything changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64u32)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| wi as u32 * 64 + b)
        })
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// An LR(0) item: production index and dot position.
pub type Item = (u32, u32);

pub struct LalrInput {
    /// Number of terminals (including eof).
    pub num_terms: u32,
    /// Number of nonterminals (including the augmented start, which must
    /// be the lhs of production 0).
    pub num_nonterms: u32,
    /// Productions: `(lhs nonterminal index, encoded rhs)`.
    pub prods: Vec<(u32, Vec<Sym>)>,
    /// Terminal index of eof.
    pub eof: u32,
}

pub struct Automaton {
    /// Kernel items per state, sorted.
    pub kernels: Vec<Vec<Item>>,
    /// Transitions: per state, symbol -> target state.
    pub trans: Vec<HashMap<Sym, u32>>,
    /// Reduce actions: per state, list of `(production, lookahead set)`.
    pub reduces: Vec<Vec<(u32, BitSet)>>,
}

struct Ctx<'g> {
    g: &'g LalrInput,
    nullable: Vec<bool>,
    first: Vec<BitSet>,
    /// Productions grouped by lhs.
    by_lhs: Vec<Vec<u32>>,
}

impl<'g> Ctx<'g> {
    fn is_term(&self, s: Sym) -> bool {
        s < self.g.num_terms
    }

    fn nt(&self, s: Sym) -> usize {
        (s - self.g.num_terms) as usize
    }

    /// FIRST of a symbol sequence followed by the lookahead set `la`.
    fn first_seq(&self, seq: &[Sym], la: &BitSet, out: &mut BitSet) {
        for &s in seq {
            if self.is_term(s) {
                out.insert(s);
                return;
            }
            out.union_with(&self.first[self.nt(s)]);
            if !self.nullable[self.nt(s)] {
                return;
            }
        }
        out.union_with(la);
    }
}

fn compute_first(g: &LalrInput) -> (Vec<bool>, Vec<BitSet>) {
    let n = g.num_nonterms as usize;
    let mut nullable = vec![false; n];
    let mut first = vec![BitSet::new(g.num_terms as usize + 1); n];
    loop {
        let mut changed = false;
        for (lhs, rhs) in &g.prods {
            let lhs = *lhs as usize;
            let mut all_nullable = true;
            for &s in rhs {
                if s < g.num_terms {
                    changed |= first[lhs].insert(s);
                    all_nullable = false;
                    break;
                }
                let nt = (s - g.num_terms) as usize;
                let other = first[nt].clone();
                changed |= first[lhs].union_with(&other);
                if !nullable[nt] {
                    all_nullable = false;
                    break;
                }
            }
            if all_nullable && !nullable[lhs] {
                nullable[lhs] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (nullable, first)
}

/// LR(0) closure: the set of items reachable from `kernel`.
fn closure0(ctx: &Ctx, kernel: &[Item]) -> Vec<Item> {
    let mut items: Vec<Item> = kernel.to_vec();
    let mut seen: HashMap<Item, ()> = items.iter().map(|&i| (i, ())).collect();
    let mut added_nt = vec![false; ctx.g.num_nonterms as usize];
    let mut i = 0;
    while i < items.len() {
        let (p, dot) = items[i];
        i += 1;
        let rhs = &ctx.g.prods[p as usize].1;
        if let Some(&s) = rhs.get(dot as usize) {
            if !ctx.is_term(s) {
                let nt = ctx.nt(s);
                if !added_nt[nt] {
                    added_nt[nt] = true;
                    for &q in &ctx.by_lhs[nt] {
                        let item = (q, 0);
                        if seen.insert(item, ()).is_none() {
                            items.push(item);
                        }
                    }
                }
            }
        }
    }
    items
}

/// LR(1)-style closure over `(item -> lookahead set)` seeds, to a fixpoint.
fn closure1(ctx: &Ctx, seeds: &[(Item, BitSet)]) -> HashMap<Item, BitSet> {
    let mut map: HashMap<Item, BitSet> = HashMap::new();
    let mut work: Vec<Item> = Vec::new();
    for (item, las) in seeds {
        map.entry(*item)
            .or_insert_with(|| BitSet::new(ctx.g.num_terms as usize + 1))
            .union_with(las);
        work.push(*item);
    }
    while let Some(item) = work.pop() {
        let (p, dot) = item;
        let rhs = ctx.g.prods[p as usize].1.clone();
        let Some(&s) = rhs.get(dot as usize) else {
            continue;
        };
        if ctx.is_term(s) {
            continue;
        }
        let la = map.get(&item).expect("seeded").clone();
        let mut firsts = BitSet::new(ctx.g.num_terms as usize + 1);
        ctx.first_seq(&rhs[dot as usize + 1..], &la, &mut firsts);
        for &q in &ctx.by_lhs[ctx.nt(s)] {
            let target = (q, 0);
            let entry = map
                .entry(target)
                .or_insert_with(|| BitSet::new(ctx.g.num_terms as usize + 1));
            if entry.union_with(&firsts) {
                work.push(target);
            }
        }
    }
    map
}

/// Builds the LR(0) automaton and LALR(1) reduce sets.
pub fn build(g: &LalrInput) -> Automaton {
    let (nullable, first) = compute_first(g);
    let mut by_lhs = vec![Vec::new(); g.num_nonterms as usize];
    for (i, (lhs, _)) in g.prods.iter().enumerate() {
        by_lhs[*lhs as usize].push(i as u32);
    }
    let ctx = Ctx {
        g,
        nullable,
        first,
        by_lhs,
    };

    // LR(0) states by kernel.
    let mut kernels: Vec<Vec<Item>> = vec![vec![(0, 0)]];
    let mut index: HashMap<Vec<Item>, u32> = HashMap::new();
    index.insert(kernels[0].clone(), 0);
    let mut trans: Vec<HashMap<Sym, u32>> = Vec::new();
    let mut i = 0;
    while i < kernels.len() {
        let items = closure0(&ctx, &kernels[i]);
        // Ordered by symbol so state numbering is a pure function of the
        // grammar: tables built at compile time and at run time agree.
        let mut by_sym: BTreeMap<Sym, Vec<Item>> = BTreeMap::new();
        for (p, dot) in items {
            if let Some(&s) = ctx.g.prods[p as usize].1.get(dot as usize) {
                by_sym.entry(s).or_default().push((p, dot + 1));
            }
        }
        let mut t = HashMap::new();
        for (s, mut kernel) in by_sym {
            kernel.sort_unstable();
            kernel.dedup();
            let next = *index.entry(kernel.clone()).or_insert_with(|| {
                kernels.push(kernel);
                (kernels.len() - 1) as u32
            });
            t.insert(s, next);
        }
        trans.push(t);
        i += 1;
    }

    // LALR lookaheads for kernel items: spontaneous + propagation.
    let dummy: u32 = g.num_terms; // bit index just past real terminals
    let item_pos: Vec<HashMap<Item, usize>> = kernels
        .iter()
        .map(|k| k.iter().enumerate().map(|(i, &it)| (it, i)).collect())
        .collect();
    let mut la: Vec<Vec<BitSet>> = kernels
        .iter()
        .map(|k| vec![BitSet::new(g.num_terms as usize + 1); k.len()])
        .collect();
    la[0][0].insert(g.eof);
    // edges: (state, kernel idx) -> list of (state, kernel idx)
    let mut edges: HashMap<(u32, usize), Vec<(u32, usize)>> = HashMap::new();
    for (st, kernel) in kernels.iter().enumerate() {
        for (ki, &item) in kernel.iter().enumerate() {
            let mut seed = BitSet::new(g.num_terms as usize + 1);
            seed.insert(dummy);
            let closed = closure1(&ctx, &[(item, seed)]);
            for ((p, dot), las) in closed {
                let rhs = &ctx.g.prods[p as usize].1;
                let Some(&s) = rhs.get(dot as usize) else {
                    continue;
                };
                let target_state = trans[st][&s];
                let target_item = (p, dot + 1);
                let ti = item_pos[target_state as usize][&target_item];
                for l in las.iter() {
                    if l == dummy {
                        edges
                            .entry((st as u32, ki))
                            .or_default()
                            .push((target_state, ti));
                    } else {
                        la[target_state as usize][ti].insert(l);
                    }
                }
            }
        }
    }
    // Propagate to fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for ((src_st, src_ki), targets) in &edges {
            let src = la[*src_st as usize][*src_ki].clone();
            for (tst, tki) in targets {
                changed |= la[*tst as usize][*tki].union_with(&src);
            }
        }
    }

    // Reduce actions via in-state closure with real lookahead sets.
    let mut reduces: Vec<Vec<(u32, BitSet)>> = Vec::with_capacity(kernels.len());
    for (st, kernel) in kernels.iter().enumerate() {
        let seeds: Vec<(Item, BitSet)> = kernel
            .iter()
            .enumerate()
            .map(|(ki, &item)| (item, la[st][ki].clone()))
            .collect();
        let closed = closure1(&ctx, &seeds);
        let mut rs: Vec<(u32, BitSet)> = Vec::new();
        for ((p, dot), las) in closed {
            if dot as usize == ctx.g.prods[p as usize].1.len() && !las.is_empty() {
                rs.push((p, las));
            }
        }
        rs.sort_by_key(|&(p, _)| p);
        reduces.push(rs);
    }

    Automaton {
        kernels,
        trans,
        reduces,
    }
}

#[cfg(test)]
mod bitset_tests {
    use super::BitSet;

    #[test]
    fn insert_contains_union() {
        let mut a = BitSet::new(130);
        assert!(a.is_empty());
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(129), "re-insert reports no change");
        assert!(a.contains(0) && a.contains(129) && !a.contains(64));
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(b.union_with(&a));
        assert!(!b.union_with(&a), "second union is a no-op");
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
    }
}
