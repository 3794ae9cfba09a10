//! Property-style tests on the core data structures and invariants that the
//! whole stack leans on. Each test sweeps many pseudo-random cases drawn from
//! a fixed seed, so runs are deterministic and fully offline.

use deisa_repro::darray::ChunkGrid;
use deisa_repro::deisa::{block_key, naming, Contract, Selection, VirtualArray};
use deisa_repro::linalg::stats::{col_mean, col_var, RunningStats};
use deisa_repro::linalg::{householder_qr, jacobi_svd, jacobi_svd_vt, Matrix, NDArray};
use rand::prelude::*;

const CASES: usize = 64;

/// Random shape (1–3 dims of 1–5) plus a valid slice inside it.
fn shape_and_slice(rng: &mut SmallRng) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let ndim = rng.gen_range(1usize..4);
    let shape: Vec<usize> = (0..ndim).map(|_| rng.gen_range(1usize..6)).collect();
    let starts: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0usize..s)).collect();
    let sizes: Vec<usize> = shape
        .iter()
        .zip(&starts)
        .map(|(&s, &st)| rng.gen_range(1usize..=s - st))
        .collect();
    (shape, starts, sizes)
}

// ---------- NDArray slice/assign ------------------------------------------

#[test]
fn slice_assign_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for _ in 0..CASES {
        let (shape, starts, sizes) = shape_and_slice(&mut rng);
        let a = NDArray::from_fn(&shape, |idx| {
            idx.iter()
                .enumerate()
                .map(|(d, &i)| (d + 1) * 100 + i)
                .sum::<usize>() as f64
        });
        let block = a.slice(&starts, &sizes).unwrap();
        assert_eq!(block.shape(), &sizes[..]);
        let mut b = NDArray::zeros(&shape);
        b.assign_slice(&starts, &block).unwrap();
        // Every element of the assigned region matches the source.
        let back = b.slice(&starts, &sizes).unwrap();
        assert_eq!(back.max_abs_diff(&block).unwrap(), 0.0);
    }
}

#[test]
fn reshape_preserves_sum() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..64);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let a = NDArray::from_vec(&[n], data).unwrap();
        let sum = a.sum();
        let b = a.reshape(&[1, n]).unwrap();
        assert!((b.sum() - sum).abs() < 1e-9);
    }
}

// ---------- ChunkGrid ---------------------------------------------------

#[test]
fn chunk_grid_tiles_exactly() {
    let mut rng = SmallRng::seed_from_u64(0xC4C4);
    for _ in 0..CASES {
        let ndim = rng.gen_range(1usize..4);
        let shape: Vec<usize> = (0..ndim).map(|_| rng.gen_range(1usize..20)).collect();
        let chunk: Vec<usize> = shape
            .iter()
            .map(|&s| rng.gen_range(1usize..7).min(s))
            .collect();
        let grid = ChunkGrid::regular(&shape, &chunk).unwrap();
        // Chunks tile each dimension exactly.
        for (d, &extent) in shape.iter().enumerate() {
            let total: usize = grid.chunk_sizes(d).iter().sum();
            assert_eq!(total, extent);
        }
        // Every block's start+extent stays in bounds; blocks cover everything.
        let dims = grid.grid_dims();
        let mut covered = 0usize;
        for coord in deisa_repro::darray::array::iter_coords(&dims) {
            let start = grid.block_start(&coord);
            let extent = grid.block_extent(&coord);
            for d in 0..shape.len() {
                assert!(start[d] + extent[d] <= shape[d]);
            }
            covered += extent.iter().product::<usize>();
        }
        assert_eq!(covered, shape.iter().product::<usize>());
    }
}

// ---------- naming scheme ----------------------------------------------

#[test]
fn block_key_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    let first: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain(std::iter::once('_'))
        .collect();
    let rest: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain('0'..='9')
        .chain(std::iter::once('_'))
        .collect();
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..13);
        let mut name = String::new();
        name.push(first[rng.gen_range(0usize..first.len())]);
        for _ in 0..len {
            name.push(rest[rng.gen_range(0usize..rest.len())]);
        }
        let pos: Vec<usize> = (0..rng.gen_range(1usize..5))
            .map(|_| rng.gen_range(0usize..1000))
            .collect();
        let key = block_key(&name, &pos);
        let (n, p) = naming::parse_block_key(&key).unwrap();
        assert_eq!(n, name);
        assert_eq!(p, pos);
    }
}

// ---------- contracts ----------------------------------------------------

#[test]
fn selection_intersection_matches_block_ranges() {
    let mut rng = SmallRng::seed_from_u64(0x5E1);
    for _ in 0..CASES {
        let t = rng.gen_range(1usize..6);
        let grid = rng.gen_range(1usize..5);
        let block = 3usize;
        let extent = grid * block;
        let v = VirtualArray::new("A", &[t, extent, extent], &[1, block, block], 0).unwrap();
        let (s0, s1, z0, z1) = (
            rng.gen_range(0usize..100),
            rng.gen_range(0usize..100),
            rng.gen_range(1usize..100),
            rng.gen_range(1usize..100),
        );
        let starts = vec![0, s0 % extent, s1 % extent];
        let sizes = vec![
            t,
            (z0 % (extent - starts[1])).max(1).min(extent - starts[1]),
            (z1 % (extent - starts[2])).max(1).min(extent - starts[2]),
        ];
        let sel = Selection { starts, sizes };
        sel.validate(&v).unwrap();
        let ranges = sel.block_ranges(&v);
        // A block intersects the selection IFF its coordinate is inside the
        // block ranges, for every block of the grid.
        for step in 0..t {
            for b in 0..v.blocks_per_step() {
                let pos = v.block_position(step, b);
                let inside = pos.iter().zip(&ranges).all(|(&p, r)| r.contains(&p));
                assert_eq!(sel.intersects_block(&v, &pos), inside);
            }
        }
    }
}

#[test]
fn contract_datum_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xD00D);
    for _ in 0..CASES {
        let n_names = rng.gen_range(1usize..4);
        let names: Vec<String> = (0..n_names)
            .map(|_| {
                let len = rng.gen_range(1usize..9);
                (0..len)
                    .map(|_| char::from(b'a' + rng.gen_range(0u32..26) as u8))
                    .collect()
            })
            .collect();
        let dims: Vec<(usize, usize)> = (0..rng.gen_range(1usize..4))
            .map(|_| (rng.gen_range(0usize..10), rng.gen_range(1usize..10)))
            .collect();
        let mut c = Contract::new();
        for name in &names {
            let sel = Selection {
                starts: dims.iter().map(|&(s, _)| s).collect(),
                sizes: dims.iter().map(|&(_, z)| z).collect(),
            };
            c.insert(name, sel);
        }
        let back = Contract::from_datum(&c.to_datum()).unwrap();
        assert_eq!(back, c);
    }
}

// ---------- incremental statistics ---------------------------------------

#[test]
fn running_stats_equal_any_batching() {
    let mut rng = SmallRng::seed_from_u64(0x57A7);
    for _ in 0..CASES {
        let cols = 3usize;
        let len = rng.gen_range(12usize..48);
        let rows: Vec<f64> = (0..len).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let split = rng.gen_range(1usize..11);
        let n = rows.len() / cols;
        if n == 0 {
            continue;
        }
        let data = &rows[..n * cols];
        let whole = Matrix::from_vec(n, cols, data.to_vec()).unwrap();
        let wm = col_mean(&whole);
        let wv = col_var(&whole, &wm);

        let mut rs = RunningStats::new(cols);
        let mut row = 0;
        while row < n {
            let h = split.min(n - row);
            let chunk =
                Matrix::from_vec(h, cols, data[row * cols..(row + h) * cols].to_vec()).unwrap();
            let m = col_mean(&chunk);
            let v = col_var(&chunk, &m);
            rs.update(h as u64, &m, &v).unwrap();
            row += h;
        }
        for j in 0..cols {
            assert!((rs.mean[j] - wm[j]).abs() < 1e-9);
            assert!((rs.var[j] - wv[j]).abs() < 1e-7);
        }
    }
}

// ---------- linear algebra ------------------------------------------------

#[test]
fn qr_always_reconstructs() {
    let mut rng = SmallRng::seed_from_u64(0x9182);
    for _ in 0..CASES {
        let m = rng.gen_range(1usize..12);
        let n = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..1000);
        let a = Matrix::from_fn(m, n, |i, j| {
            let x = (i as u64 * 31 + j as u64 * 17 + seed) % 101;
            x as f64 / 10.0 - 5.0
        });
        let qr = householder_qr(&a).unwrap();
        let rec = qr.q.matmul(&qr.r).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-8);
    }
}

#[test]
fn svd_singular_values_nonneg_descending_and_norm_preserving() {
    let mut rng = SmallRng::seed_from_u64(0x51D);
    for _ in 0..CASES {
        let m = rng.gen_range(1usize..10);
        let n = rng.gen_range(1usize..10);
        let seed = rng.gen_range(0u64..1000);
        let a = Matrix::from_fn(m, n, |i, j| {
            let x = (i as u64 * 13 + j as u64 * 7 + seed * 3) % 97;
            x as f64 / 7.0 - 6.0
        });
        let svd = jacobi_svd(&a).unwrap();
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-10);
        }
        for &s in &svd.s {
            assert!(s >= 0.0);
        }
        let fro2: f64 = a.frobenius_norm().powi(2);
        let ss: f64 = svd.s.iter().map(|s| s * s).sum();
        assert!((fro2 - ss).abs() < 1e-6 * fro2.max(1.0));
    }
}

/// Low-rank matrices (a spectrum falling tenfold per term, then rounding
/// noise) with zero columns, up to the IPCA stack's 131×64 and beyond: the
/// shape where a Jacobi SVD meets columns that are pure rounding.
#[test]
fn svd_of_low_rank_matrices_with_zero_columns() {
    let mut rng = SmallRng::seed_from_u64(0x10_4A4C);
    for case in 0..16 {
        let m = rng.gen_range(1usize..141);
        let n = rng.gen_range(1usize..65);
        let rank = rng.gen_range(0usize..=m.min(n).min(5));
        let x: Vec<f64> = (0..m * rank).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..rank * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let zero_column: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.25)).collect();
        let a = Matrix::from_fn(m, n, |i, j| {
            if zero_column[j] {
                return 0.0;
            }
            (0..rank)
                .map(|r| 0.1f64.powi(r as i32) * x[i * rank + r] * y[r * n + j])
                .sum()
        });
        let what = format!("case {case}: {m}x{n}, rank {rank}");
        let fro = a.frobenius_norm();

        let svd = jacobi_svd(&a).unwrap();
        let rec = svd.reconstruct().unwrap();
        let err: f64 = rec
            .data()
            .iter()
            .zip(a.data())
            .map(|(r, a)| (r - a) * (r - a))
            .sum::<f64>()
            .sqrt();
        assert!(err <= 1e-9 * fro, "{what}: reconstruction error {err:e}");
        let k = svd.vt.rows();
        let gram = svd.vt.matmul(&svd.vt.transpose()).unwrap();
        let dev = gram.max_abs_diff(&Matrix::eye(k)).unwrap();
        assert!(
            dev <= 1e-10,
            "{what}: rows of Vt off orthonormal by {dev:e}"
        );

        let (s, vt) = jacobi_svd_vt(&a).unwrap();
        assert_eq!((s.len(), vt.rows(), vt.cols()), (k, k, n), "{what}");
        for (i, (si, want_si)) in s.iter().zip(&svd.s).enumerate() {
            assert!((si - want_si).abs() <= 1e-12 * fro, "{what}: sigma_{i}");
            if *want_si > 1e-8 * fro {
                let (row, want) = (vt.row(i), svd.vt.row(i));
                let same = row.iter().zip(want).map(|(a, b)| (a - b).abs());
                let flipped = row.iter().zip(want).map(|(a, b)| (a + b).abs());
                let dist = same.fold(0.0, f64::max).min(flipped.fold(0.0, f64::max));
                assert!(dist <= 1e-10, "{what}: row {i} of Vt differs by {dist:e}");
            }
        }
    }
}

// ---------- virtual arrays -------------------------------------------------

#[test]
fn varray_keys_are_unique_and_parse() {
    let mut rng = SmallRng::seed_from_u64(0x7A97);
    for _ in 0..CASES {
        let t = rng.gen_range(1usize..5);
        let gx = rng.gen_range(1usize..4);
        let gy = rng.gen_range(1usize..4);
        let v = VirtualArray::new("f", &[t, gx * 2, gy * 3], &[1, 2, 3], 0).unwrap();
        let keys = v.all_keys();
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        assert_eq!(keys.len(), t * gx * gy);
        for key in &keys {
            assert!(naming::parse_block_key(key).is_some());
        }
    }
}
