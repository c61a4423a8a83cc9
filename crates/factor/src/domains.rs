//! Variable domains: each variable `X_i` ranges over `{0, 1, …, size_i − 1}`.
//!
//! Domain values are dense `u32` codes; applications maintain their own
//! dictionaries when the natural domain is strings or sparse integers. The
//! paper assumes `|Dom(X_i)| ≥ 2` for bound variables; the engine validates
//! that where it matters.

use faq_hypergraph::Var;

/// Per-variable domain sizes, indexed by [`Var`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domains {
    sizes: Vec<u32>,
}

impl Domains {
    /// Build from explicit sizes: variable `i` has domain `{0..sizes[i]}`.
    pub fn new(sizes: Vec<u32>) -> Self {
        Domains { sizes }
    }

    /// `n` variables, all with the same domain size.
    pub fn uniform(n: usize, size: u32) -> Self {
        Domains { sizes: vec![size; n] }
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether there are no variables.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Domain size of `v`. Panics if `v` is out of range.
    pub fn size(&self, v: Var) -> u32 {
        self.sizes[v.index()]
    }

    /// All variables in index order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.sizes.len() as u32).map(Var)
    }

    /// Iterate over every assignment to `vars` in lexicographic order.
    pub fn assignments<'a>(&'a self, vars: &'a [Var]) -> AssignmentIter<'a> {
        AssignmentIter {
            domains: self,
            vars,
            current: vec![0; vars.len()],
            done: vars.iter().any(|&v| self.size(v) == 0),
            started: false,
        }
    }
}

/// Odometer-style iterator over all assignments to a variable list.
#[derive(Debug)]
pub struct AssignmentIter<'a> {
    domains: &'a Domains,
    vars: &'a [Var],
    current: Vec<u32>,
    done: bool,
    started: bool,
}

impl<'a> Iterator for AssignmentIter<'a> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.current.clone());
        }
        // Increment from the last position (lexicographic order).
        for i in (0..self.vars.len()).rev() {
            self.current[i] += 1;
            if self.current[i] < self.domains.size(self.vars[i]) {
                return Some(self.current.clone());
            }
            self.current[i] = 0;
        }
        self.done = true;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faq_hypergraph::v;

    #[test]
    fn sizes_and_len() {
        let d = Domains::new(vec![3, 3, 5]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.size(v(0)), 3);
        assert_eq!(d.size(v(2)), 5);
    }

    #[test]
    fn assignment_iteration_lexicographic() {
        let d = Domains::new(vec![2, 3]);
        let all: Vec<Vec<u32>> = d.assignments(&[v(0), v(1)]).collect();
        assert_eq!(
            all,
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 2]]
        );
    }

    #[test]
    fn empty_varlist_has_one_assignment() {
        let d = Domains::new(vec![2]);
        let all: Vec<Vec<u32>> = d.assignments(&[]).collect();
        assert_eq!(all, vec![Vec::<u32>::new()]);
    }

    #[test]
    fn zero_size_domain_yields_nothing() {
        let d = Domains::new(vec![0]);
        assert_eq!(d.assignments(&[v(0)]).count(), 0);
    }
}
