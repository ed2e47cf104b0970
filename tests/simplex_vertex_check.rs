//! Independent validation of the simplex: on two-variable LPs the optimum
//! lies on a vertex of the feasible polygon, and all vertices can be
//! enumerated by intersecting constraint/bound lines pairwise. The simplex
//! must agree with that brute force on every random instance (deterministic
//! seeded sweeps from the vendored PRNG).

use segrout_core::rng::StdRng;
use segrout_lp::{solve_lp, Cmp, LpStatus, Problem, Sense};

/// All candidate vertices of `{a1 x + b1 y <= c1, ...} ∩ [0,U]^2`:
/// intersections of every pair of boundary lines.
fn enumerate_vertices(rows: &[(f64, f64, f64)], upper: f64) -> Vec<(f64, f64)> {
    // Boundary lines as (a, b, c): a x + b y = c.
    let mut lines: Vec<(f64, f64, f64)> = rows.to_vec();
    lines.push((1.0, 0.0, 0.0)); // x = 0
    lines.push((0.0, 1.0, 0.0)); // y = 0
    lines.push((1.0, 0.0, upper)); // x = U
    lines.push((0.0, 1.0, upper)); // y = U
    let mut pts = Vec::new();
    for i in 0..lines.len() {
        for j in i + 1..lines.len() {
            let (a1, b1, c1) = lines[i];
            let (a2, b2, c2) = lines[j];
            let det = a1 * b2 - a2 * b1;
            if det.abs() < 1e-9 {
                continue;
            }
            let x = (c1 * b2 - c2 * b1) / det;
            let y = (a1 * c2 - a2 * c1) / det;
            pts.push((x, y));
        }
    }
    pts
}

fn feasible(rows: &[(f64, f64, f64)], upper: f64, x: f64, y: f64) -> bool {
    if !(-1e-7..=upper + 1e-7).contains(&x) || !(-1e-7..=upper + 1e-7).contains(&y) {
        return false;
    }
    rows.iter().all(|&(a, b, c)| a * x + b * y <= c + 1e-7)
}

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen_f64()
}

/// Random bounded-maximization LPs in 2 variables: simplex == vertex
/// enumeration.
#[test]
fn simplex_matches_vertex_enumeration() {
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let obj_x = uniform(&mut rng, 0.1, 10.0);
        let obj_y = uniform(&mut rng, 0.1, 10.0);
        let n_rows = rng.gen_range(1..6usize);
        let rows: Vec<(f64, f64, f64)> = (0..n_rows)
            .map(|_| {
                (
                    uniform(&mut rng, 0.1, 5.0),
                    uniform(&mut rng, 0.1, 5.0),
                    uniform(&mut rng, 1.0, 20.0),
                )
            })
            .collect();
        let upper = 50.0;

        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var(0.0, upper, obj_x);
        let y = p.add_var(0.0, upper, obj_y);
        for &(a, b, c) in &rows {
            p.add_constraint(vec![(x, a), (y, b)], Cmp::Le, c);
        }
        let r = solve_lp(&p);
        assert_eq!(
            r.status,
            LpStatus::Optimal,
            "seed {seed}: bounded non-empty LP"
        );

        let best = enumerate_vertices(&rows, upper)
            .into_iter()
            .filter(|&(vx, vy)| feasible(&rows, upper, vx, vy))
            .map(|(vx, vy)| obj_x * vx + obj_y * vy)
            .fold(0.0f64, f64::max);
        assert!(
            (r.objective - best).abs() < 1e-5 * (1.0 + best),
            "seed {seed}: simplex {} vs vertex enumeration {}",
            r.objective,
            best
        );
    }
}

/// Minimization with >= rows: compare against vertex enumeration of the
/// flipped system.
#[test]
fn minimization_matches_vertex_enumeration() {
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
        let obj_x = uniform(&mut rng, 0.1, 10.0);
        let obj_y = uniform(&mut rng, 0.1, 10.0);
        let n_rows = rng.gen_range(1..5usize);
        let raw_rows: Vec<(f64, f64, f64)> = (0..n_rows)
            .map(|_| {
                (
                    uniform(&mut rng, 0.1, 5.0),
                    uniform(&mut rng, 0.1, 5.0),
                    uniform(&mut rng, 1.0, 20.0),
                )
            })
            .collect();
        let upper = 50.0;
        // a x + b y >= c  <=>  -a x - b y <= -c.
        let rows: Vec<(f64, f64, f64)> = raw_rows.iter().map(|&(a, b, c)| (-a, -b, -c)).collect();

        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var(0.0, upper, obj_x);
        let y = p.add_var(0.0, upper, obj_y);
        for &(a, b, c) in &raw_rows {
            p.add_constraint(vec![(x, a), (y, b)], Cmp::Ge, c);
        }
        let r = solve_lp(&p);
        let best = enumerate_vertices(&rows, upper)
            .into_iter()
            .filter(|&(vx, vy)| feasible(&rows, upper, vx, vy))
            .map(|(vx, vy)| obj_x * vx + obj_y * vy)
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            assert_eq!(r.status, LpStatus::Optimal, "seed {seed}");
            assert!(
                (r.objective - best).abs() < 1e-5 * (1.0 + best.abs()),
                "seed {seed}: simplex {} vs vertex enumeration {}",
                r.objective,
                best
            );
        } else {
            // The >= rows can exceed what the box [0,U]^2 can deliver: both
            // the enumeration and the simplex must agree it is infeasible.
            assert_eq!(r.status, LpStatus::Infeasible, "seed {seed}");
        }
    }
}
