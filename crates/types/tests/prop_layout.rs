//! Property tests over randomly generated type structures: layout
//! arithmetic, normalization, and compatibility must satisfy their
//! algebraic laws for *every* type shape, not just the handwritten ones.
//!
//! Cases are driven by the workspace's deterministic [`Rng64`] so the
//! suite needs no external property-testing framework and every failure
//! is reproducible from the case index alone.

use structcast_types::rng::Rng64;
use structcast_types::{
    common_initial_len, compatible, enclosing_candidates, following_leaves, leaves,
    normalize_path, type_of_path, CompatMode, Field, FieldPath, Layout, RecordId, TypeId,
    TypeTable,
};

use std::collections::HashMap;

const LAYOUTS: [fn() -> Layout; 3] = [Layout::ilp32, Layout::lp64, Layout::packed32];

const CASES: u64 = 128;

/// The deepest by-value nesting the front end accepts
/// (`structcast_ir::MAX_TYPE_DEPTH`).
const MAX_TYPE_DEPTH: u32 = 128;

/// A recipe for building a random type tree (depth-bounded).
#[derive(Debug, Clone)]
enum TypeRecipe {
    Int,
    Char,
    Double,
    PtrInt,
    /// A struct declared but never completed.
    Incomplete,
    /// A struct completed with no fields.
    Empty,
    /// `T[n]`, or `T[]` when the length is `None`.
    Array(Box<TypeRecipe>, Option<u64>),
    Struct(Vec<TypeRecipe>),
    Union(Vec<TypeRecipe>),
}

/// A random scalar, or now and then an incomplete or empty record.
fn random_leaf(rng: &mut Rng64) -> TypeRecipe {
    match rng.gen_range(0..10) {
        0..=1 => TypeRecipe::Int,
        2..=3 => TypeRecipe::Char,
        4..=5 => TypeRecipe::Double,
        6..=7 => TypeRecipe::PtrInt,
        8 => TypeRecipe::Incomplete,
        _ => TypeRecipe::Empty,
    }
}

/// A random array length: mostly sized, sometimes unsized.
fn random_len(rng: &mut Rng64) -> Option<u64> {
    (!rng.gen_bool(0.25)).then(|| rng.gen_range(1..4) as u64)
}

/// Draws a random depth-bounded recipe. Leaves get likelier as the
/// remaining depth shrinks, mirroring `prop_recursive`'s shape control.
fn random_recipe(rng: &mut Rng64, depth: u32) -> TypeRecipe {
    if depth == 0 || rng.gen_bool(0.3) {
        return random_leaf(rng);
    }
    match rng.gen_range(0..3) {
        0 => TypeRecipe::Array(Box::new(random_recipe(rng, depth - 1)), random_len(rng)),
        1 => {
            let n = rng.gen_range(1..5);
            TypeRecipe::Struct((0..n).map(|_| random_recipe(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(1..4);
            TypeRecipe::Union((0..n).map(|_| random_recipe(rng, depth - 1)).collect())
        }
    }
}

/// A chain `depth` levels deep: each level wraps the one below in an array
/// or in a struct with small random siblings (scalars, unions, arrays,
/// records) on either side. No union wraps the chain itself, since
/// everything under a union is one leaf.
fn deep_recipe(rng: &mut Rng64, depth: u32) -> TypeRecipe {
    let mut r = random_recipe(rng, 1);
    for _ in 0..depth {
        r = match rng.gen_range(0..6) {
            0 => TypeRecipe::Array(Box::new(r), random_len(rng)),
            _ => {
                let mut fields: Vec<TypeRecipe> = (0..rng.gen_range(0..3))
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            random_recipe(rng, 1)
                        } else {
                            random_leaf(rng)
                        }
                    })
                    .collect();
                let at = rng.gen_range(0..fields.len() + 1);
                fields.insert(at, r);
                TypeRecipe::Struct(fields)
            }
        };
    }
    r
}

fn build(table: &mut TypeTable, r: &TypeRecipe, counter: &mut u32) -> TypeId {
    match r {
        TypeRecipe::Int => table.int(),
        TypeRecipe::Char => table.char(),
        TypeRecipe::Double => table.double(),
        TypeRecipe::PtrInt => {
            let i = table.int();
            table.pointer_to(i)
        }
        TypeRecipe::Incomplete | TypeRecipe::Empty => {
            *counter += 1;
            let (rid, tid) = table.new_record(Some(format!("R{counter}")), false);
            if matches!(r, TypeRecipe::Empty) {
                table.complete_record(rid, Vec::new());
            }
            tid
        }
        TypeRecipe::Array(inner, n) => {
            let t = build(table, inner, counter);
            table.array_of(t, *n)
        }
        TypeRecipe::Struct(fields) | TypeRecipe::Union(fields) => {
            let is_union = matches!(r, TypeRecipe::Union(_));
            let built: Vec<TypeId> = fields.iter().map(|f| build(table, f, counter)).collect();
            *counter += 1;
            let (rid, tid) = table.new_record(Some(format!("R{counter}")), is_union);
            table.complete_record(
                rid,
                built
                    .into_iter()
                    .enumerate()
                    .map(|(i, ty)| Field {
                        name: format!("f{i}"),
                        ty,
                        anonymous: false,
                    })
                    .collect(),
            );
            tid
        }
    }
}

/// Builds one random type per case and hands it to `check`.
fn for_each_case(salt: u64, mut check: impl FnMut(&TypeTable, TypeId, &mut Rng64)) {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(salt.wrapping_mul(0x9E37).wrapping_add(case));
        let recipe = random_recipe(&mut rng, 3);
        let mut table = TypeTable::new();
        let mut c = 0;
        let ty = build(&mut table, &recipe, &mut c);
        check(&table, ty, &mut rng);
    }
}

#[test]
fn layout_size_and_alignment_laws() {
    for_each_case(1, |table, ty, _| {
        for layout in [Layout::ilp32(), Layout::lp64(), Layout::packed32()] {
            let (size, align) = layout.size_align(table, ty);
            assert!(align >= 1);
            assert!(size % align == 0, "size {size} not multiple of align {align}");
            // Every leaf lies inside the object and is aligned (except in
            // packed mode where alignment is 1 anyway).
            for (off, lty) in layout.leaf_offsets(table, ty) {
                let (ls, la) = layout.size_align(table, lty);
                assert!(off + ls <= size, "leaf at {off}+{ls} beyond size {size}");
                assert!(off % la == 0, "leaf offset {off} misaligned ({la})");
            }
        }
    });
}

#[test]
fn canonical_offset_is_idempotent_and_bounded() {
    for_each_case(2, |table, ty, rng| {
        let layout = Layout::ilp32();
        let size = layout.size_of(table, ty);
        let probe = rng.gen_range(0..64) as u64;
        let off = if size == 0 { 0 } else { probe % size };
        let once = layout.canonical_offset(table, ty, off);
        let twice = layout.canonical_offset(table, ty, once);
        assert_eq!(once, twice, "canonical_offset not idempotent at {off}");
        assert!(
            once < size.max(1),
            "canonical offset {once} escaped object of size {size}"
        );
    });
}

#[test]
fn normalize_path_is_idempotent_and_a_leaf() {
    for_each_case(3, |table, ty, _| {
        let ls = leaves(table, ty);
        assert!(!ls.is_empty());
        // normalize of the empty path is the first leaf and is idempotent.
        let n1 = normalize_path(table, ty, &FieldPath::empty());
        let n2 = normalize_path(table, ty, &n1);
        assert_eq!(&n1, &n2);
        assert_eq!(&n1, &ls[0]);
        // Every leaf normalizes to itself.
        for l in &ls {
            assert_eq!(&normalize_path(table, ty, l), l);
        }
    });
}

#[test]
fn leaves_are_unique_and_typed() {
    for_each_case(4, |table, ty, _| {
        let ls = leaves(table, ty);
        let set: std::collections::HashSet<_> = ls.iter().collect();
        assert_eq!(set.len(), ls.len(), "duplicate leaves");
        for l in &ls {
            assert!(type_of_path(table, ty, l).is_some(), "leaf {l} untypable");
        }
    });
}

#[test]
fn following_leaves_contains_self_and_stays_in_type() {
    for_each_case(5, |table, ty, _| {
        let ls = leaves(table, ty);
        let all: std::collections::HashSet<_> = ls.iter().cloned().collect();
        for l in &ls {
            let fl = following_leaves(table, ty, l);
            assert!(fl.contains(l), "followingFields must include the field itself");
            for f in &fl {
                assert!(all.contains(f), "{f} is not a leaf of the type");
            }
        }
    });
}

#[test]
fn enclosing_candidates_normalize_back() {
    for_each_case(6, |table, ty, _| {
        for beta in leaves(table, ty) {
            for delta in enclosing_candidates(table, ty, &beta) {
                assert_eq!(normalize_path(table, ty, &delta), beta.clone());
            }
        }
    });
}

#[test]
fn compatibility_is_reflexive_and_symmetric() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x7000 + case);
        let ra = random_recipe(&mut rng, 3);
        let rb = random_recipe(&mut rng, 3);
        let mut table = TypeTable::new();
        let mut c = 0;
        let ta = build(&mut table, &ra, &mut c);
        let tb = build(&mut table, &rb, &mut c);
        for mode in [CompatMode::Structural, CompatMode::TagBased] {
            assert!(compatible(&table, ta, ta, mode));
            assert!(compatible(&table, tb, tb, mode));
            assert_eq!(
                compatible(&table, ta, tb, mode),
                compatible(&table, tb, ta, mode)
            );
        }
    }
}

#[test]
fn cis_is_symmetric_and_bounded() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x8000 + case);
        let ra = random_recipe(&mut rng, 3);
        let rb = random_recipe(&mut rng, 3);
        let mut table = TypeTable::new();
        let mut c = 0;
        let ta = build(&mut table, &ra, &mut c);
        let tb = build(&mut table, &rb, &mut c);
        let recs: Vec<RecordId> = [ta, tb]
            .iter()
            .filter_map(|&t| table.as_record(table.strip_arrays(t)))
            .collect();
        if recs.len() == 2 {
            let n1 = common_initial_len(&table, recs[0], recs[1], CompatMode::Structural);
            let n2 = common_initial_len(&table, recs[1], recs[0], CompatMode::Structural);
            assert_eq!(n1, n2, "CIS must be symmetric");
            let f0 = table.record(recs[0]).fields.len();
            let f1 = table.record(recs[1]).fields.len();
            assert!(n1 <= f0.min(f1));
        }
    }
}

/// Builds one chain [`MAX_TYPE_DEPTH`] levels deep per case (fewer cases:
/// each is large).
fn for_each_deep_case(salt: u64, mut check: impl FnMut(&TypeTable, TypeId, &mut Rng64)) {
    for case in 0..CASES / 16 {
        let mut rng = Rng64::seed_from_u64(salt.wrapping_mul(0x9E37).wrapping_add(case));
        let recipe = deep_recipe(&mut rng, MAX_TYPE_DEPTH);
        let mut table = TypeTable::new();
        let mut c = 0;
        let ty = build(&mut table, &recipe, &mut c);
        // Arrays add depth but no path step, so the chain keeps most of it.
        let deepest = leaves(&table, ty).iter().map(FieldPath::len).max();
        assert!(deepest >= Some(MAX_TYPE_DEPTH as usize / 2), "{deepest:?}");
        check(&table, ty, &mut rng);
    }
}

/// A random path into `ty`: a prefix of a random leaf's path, sometimes
/// followed by steps that lead nowhere (past a scalar, a union, a missing
/// field).
fn random_path(rng: &mut Rng64, leaves: &[FieldPath]) -> FieldPath {
    let leaf = &leaves[rng.gen_range(0..leaves.len())];
    let keep = rng.gen_range(0..leaf.len() + 1);
    let extra = if rng.gen_bool(0.3) { rng.gen_range(1..3) } else { 0 };
    FieldPath::from_steps(
        leaf.steps()[..keep]
            .iter()
            .copied()
            .chain((0..extra).map(|_| rng.gen_range(0..4) as u32)),
    )
}

/// Every answer of `ty`'s shape table equals the path-walking reference.
fn check_shape(table: &TypeTable, ty: TypeId, rng: &mut Rng64) {
    let paths = leaves(table, ty);
    let at: HashMap<&FieldPath, u32> = paths.iter().zip(0..).collect();
    let index = |p: &FieldPath| at[p];
    let shape = table.shape(ty);
    assert_eq!(shape.len() as usize, paths.len());
    assert_eq!(table.leaf_count(ty) as usize, paths.len());
    for (i, p) in paths.iter().enumerate() {
        let i = i as u32;
        assert_eq!(shape.path(i), p.steps());
        if i > 0 {
            assert!(shape.path(i - 1) < shape.path(i), "leaf order is path order");
        }
        assert_eq!(shape.leaf_at(p.steps()), Some(i));
        assert_eq!(Some(shape.leaf_type(i)), type_of_path(table, ty, p));
        let cands: Vec<FieldPath> = shape
            .candidates(i)
            .map(|n| p.prefix(n.depth as usize))
            .collect();
        assert_eq!(cands, enclosing_candidates(table, ty, p), "candidates of {p}");
        for n in shape.candidates(i) {
            let delta = p.prefix(n.depth as usize);
            assert_eq!(Some(n.ty), type_of_path(table, ty, &delta));
            let last = paths.iter().rposition(|l| l.starts_with(&delta)).expect("under δ");
            assert_eq!(n.end as usize, last + 1, "end leaf of {delta}");
        }
        let want: Vec<u32> = following_leaves(table, ty, p).iter().map(index).collect();
        assert_eq!(shape.following(i).collect::<Vec<_>>(), want, "following {p}");
        assert_eq!(shape.following_len(i), want.len());
    }
    for _ in 0..16 {
        let path = random_path(rng, &paths);
        let norm = normalize_path(table, ty, &path);
        assert_eq!(table.leaf_of_path(ty, path.steps()), index(&norm), "normalize {path}");
        if !paths.contains(&path) {
            assert_eq!(shape.leaf_at(path.steps()), None, "{path} is not a leaf");
        }
    }
}

/// Every answer of the layout tables equals the `Layout` reference.
fn check_layout_tables(table: &TypeTable, ty: TypeId, rng: &mut Rng64) {
    for layout in LAYOUTS.map(|l| l()) {
        let lt = table.layout_table(&layout);
        for t in (0..table.len() as u32).map(TypeId) {
            assert_eq!(lt.size_of(t), layout.size_of(table, t), "{}", table.display(t));
            assert_eq!(lt.align_of(t), layout.align_of(table, t), "{}", table.display(t));
        }
        for rid in (0..table.record_count() as u32).map(RecordId) {
            let n = table.record(rid).fields.len() as u32;
            let want: Vec<u64> = (0..n).map(|i| layout.offset_of(table, rid, i)).collect();
            assert_eq!(lt.field_offsets(rid), &want[..]);
        }
        // The reference walks are quadratic in depth or worse: sample.
        let paths = leaves(table, ty);
        for _ in 0..paths.len().min(16) {
            let p = &paths[rng.gen_range(0..paths.len())];
            for q in [p.clone(), p.prefix(rng.gen_range(0..p.len() + 1))] {
                assert_eq!(
                    lt.offset_of_path(table, ty, q.steps()),
                    layout.offset_of_path(table, ty, &q)
                );
            }
        }
        let size = layout.size_of(table, ty);
        let random = (0..8).map(|_| rng.gen_range(0..2 * size as usize + 8) as u64);
        let probes: Vec<u64> = (0..size.min(32) + 4).chain(random).collect();
        for off in probes {
            assert_eq!(
                lt.canonical_offset(table, ty, off),
                layout.canonical_offset(table, ty, off),
                "canonical offset {off} of {}",
                table.display(ty)
            );
        }
        let mut spread: Vec<u64> = layout.leaf_offsets(table, ty).iter().map(|l| l.0).collect();
        spread.push(0);
        spread.sort_unstable();
        spread.dedup();
        assert_eq!(lt.spread_offsets(table, ty), &spread[..]);
    }
}

#[test]
fn shape_tables_match_the_path_walk() {
    for_each_case(7, check_shape);
}

#[test]
fn shape_tables_match_the_path_walk_at_the_depth_limit() {
    for_each_deep_case(8, check_shape);
}

#[test]
fn layout_tables_match_the_layout() {
    for_each_case(9, check_layout_tables);
}

#[test]
fn layout_tables_match_the_layout_at_the_depth_limit() {
    for_each_deep_case(10, check_layout_tables);
}
