//! A zoo of named hypergraphs with known width parameters — fixtures for the
//! crate's tests, and executable documentation of the width theory.

use crate::{Hypergraph, Var};

/// The path `P_n`: edges `{i, i+1}` for `i < n−1`. Treewidth 1, fhtw 1.
pub(crate) fn path(n: u32) -> Hypergraph {
    assert!(n >= 1);
    let mut h = Hypergraph::new();
    for i in 0..n {
        h.add_vertex(Var(i));
    }
    for i in 0..n.saturating_sub(1) {
        h.add_edge([Var(i), Var(i + 1)]);
    }
    h
}

/// The cycle `C_n`. Treewidth 2 (n ≥ 3), fhtw 2 for even splits, ρ* = n/2.
pub(crate) fn cycle(n: u32) -> Hypergraph {
    assert!(n >= 3);
    let mut h = Hypergraph::new();
    for i in 0..n {
        h.add_edge([Var(i), Var((i + 1) % n)]);
    }
    h
}

/// The clique `K_n` as binary edges. Treewidth n−1, fhtw n/2.
pub(crate) fn clique(n: u32) -> Hypergraph {
    assert!(n >= 2);
    let mut h = Hypergraph::new();
    for i in 0..n {
        for j in i + 1..n {
            h.add_edge([Var(i), Var(j)]);
        }
    }
    h
}

/// The `rows × cols` grid. Treewidth `min(rows, cols)`.
pub(crate) fn grid(rows: u32, cols: u32) -> Hypergraph {
    assert!(rows >= 1 && cols >= 1);
    let at = |r: u32, c: u32| Var(r * cols + c);
    let mut h = Hypergraph::new();
    for r in 0..rows {
        for c in 0..cols {
            h.add_vertex(at(r, c));
            if c + 1 < cols {
                h.add_edge([at(r, c), at(r, c + 1)]);
            }
            if r + 1 < rows {
                h.add_edge([at(r, c), at(r + 1, c)]);
            }
        }
    }
    h
}

/// The star `S_n`: a hub connected to `n` leaves. α- and β-acyclic.
pub(crate) fn star(n: u32) -> Hypergraph {
    let mut h = Hypergraph::new();
    for i in 1..=n {
        h.add_edge([Var(0), Var(i)]);
    }
    h
}

/// The `k`-uniform "loomis-whitney" hypergraph `LW_k`: vertices `0..k`, one
/// edge omitting each vertex. ρ*(V) = k/(k−1); the triangle is `LW_3`.
pub(crate) fn loomis_whitney(k: u32) -> Hypergraph {
    assert!(k >= 3);
    let mut h = Hypergraph::new();
    for omit in 0..k {
        h.add_edge((0..k).filter(|&i| i != omit).map(Var));
    }
    h
}

/// The hierarchy of nested edges `{0}, {0,1}, {0,1,2}, …` — β-acyclic with a
/// forced nest-point order.
pub(crate) fn nested_chain(n: u32) -> Hypergraph {
    assert!(n >= 1);
    let mut h = Hypergraph::new();
    for i in 1..=n {
        h.add_edge((0..i).map(Var));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic::is_alpha_acyclic;
    use crate::beta::is_beta_acyclic;
    use crate::ordering::{fhtw, treewidth};
    use crate::widths::rho_star;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn path_widths() {
        let h = path(7);
        assert!(is_alpha_acyclic(&h));
        assert!(is_beta_acyclic(&h));
        assert_eq!(treewidth(&h, 16).width, 1.0);
        assert!(close(fhtw(&h, 16).width, 1.0));
    }

    #[test]
    fn cycle_widths() {
        for n in [4u32, 5, 6] {
            let h = cycle(n);
            assert!(!is_alpha_acyclic(&h));
            assert_eq!(treewidth(&h, 16).width, 2.0, "C{n}");
            assert!(close(rho_star(&h, &h.vertices().clone()), n as f64 / 2.0));
        }
    }

    #[test]
    fn clique_widths() {
        for n in [3u32, 4, 5] {
            let h = clique(n);
            assert_eq!(treewidth(&h, 16).width, (n - 1) as f64, "K{n}");
            assert!(close(rho_star(&h, &h.vertices().clone()), n as f64 / 2.0), "K{n}");
        }
    }

    #[test]
    fn grid_treewidth_is_min_side() {
        assert_eq!(treewidth(&grid(2, 4), 16).width, 2.0);
        assert_eq!(treewidth(&grid(3, 3), 16).width, 3.0);
        assert_eq!(treewidth(&grid(1, 6), 16).width, 1.0);
    }

    #[test]
    fn star_is_doubly_acyclic() {
        let h = star(6);
        assert!(is_alpha_acyclic(&h));
        assert!(is_beta_acyclic(&h));
        assert!(close(fhtw(&h, 16).width, 1.0));
    }

    #[test]
    fn loomis_whitney_fractional_cover() {
        for k in [3u32, 4, 5] {
            let h = loomis_whitney(k);
            let expect = k as f64 / (k as f64 - 1.0);
            assert!(
                close(rho_star(&h, &h.vertices().clone()), expect),
                "LW{k}: {} vs {expect}",
                rho_star(&h, &h.vertices().clone())
            );
        }
        // LW_3 is the triangle: fhtw = 3/2.
        assert!(close(fhtw(&loomis_whitney(3), 16).width, 1.5));
    }

    #[test]
    fn nested_chain_is_beta_acyclic() {
        let h = nested_chain(5);
        assert!(is_beta_acyclic(&h));
        assert!(close(fhtw(&h, 16).width, 1.0));
    }
}
