//! The call graph of a program and its strongly-connected components:
//! the one order in which the type checker generalizes, the certificate
//! inference visits functions, and the inliner tells recursive functions
//! from the rest.

use super::expr::Expr;
use super::program::{FunId, Program};

/// For each function, the functions its body names — direct calls and
/// first-class references alike — each once, in the order the body
/// first names them.
pub fn call_graph(p: &Program) -> Vec<Vec<FunId>> {
    // `seen[g] == i + 1` once function `i` has named `g`.
    let mut seen = vec![0u32; p.funs.len()];
    let mut edges = Vec::with_capacity(p.funs.len());
    for (i, f) in p.funs.iter().enumerate() {
        let mut out = Vec::new();
        f.body.visit(&mut |e| {
            if let Expr::Call(g, _) | Expr::Global(g) = e {
                if let Some(mark) = seen.get_mut(g.0 as usize) {
                    if *mark != i as u32 + 1 {
                        *mark = i as u32 + 1;
                        out.push(*g);
                    }
                }
            }
        });
        edges.push(out);
    }
    edges
}

/// The strongly-connected components of the graph whose node `i` has the
/// successors `edges[i]` (successors past the last node are ignored), by
/// Tarjan's algorithm without recursion. Components come callees first:
/// each after every component it reaches. Roots are tried in ascending
/// order and successors in the order given, and a component lists its
/// members in ascending order.
pub fn sccs(edges: &[Vec<FunId>]) -> Vec<Vec<FunId>> {
    let n = edges.len();
    let mut t = Tarjan {
        index: vec![UNSEEN; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        calls: Vec::new(),
        next: 0,
    };
    let mut out = Vec::new();
    for root in 0..n {
        if t.index[root] != UNSEEN {
            continue;
        }
        t.visit(root);
        while let Some((v, tried)) = t.calls.last_mut() {
            let v = *v;
            if let Some(w) = edges[v].get(*tried) {
                *tried += 1;
                let w = w.0 as usize;
                if w >= n {
                    continue;
                }
                if t.index[w] == UNSEEN {
                    t.visit(w);
                } else if t.on_stack[w] {
                    t.low[v] = t.low[v].min(t.index[w]);
                }
                continue;
            }
            t.calls.pop();
            if t.low[v] == t.index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = t.stack.pop().expect("v is on the stack");
                    t.on_stack[w] = false;
                    scc.push(FunId(w as u32));
                    if w == v {
                        break;
                    }
                }
                scc.sort_unstable();
                out.push(scc);
            }
            if let Some(&(u, _)) = t.calls.last() {
                t.low[u] = t.low[u].min(t.low[v]);
            }
        }
    }
    out
}

const UNSEEN: u32 = u32::MAX;

/// The state of [`sccs`].
struct Tarjan {
    /// Visit number per node (`UNSEEN` before its visit).
    index: Vec<u32>,
    /// The lowest visit number reachable from the node's subtree.
    low: Vec<u32>,
    /// Whether the node is on `stack`.
    on_stack: Vec<bool>,
    /// Tarjan's stack of visited nodes not yet in a component.
    stack: Vec<usize>,
    /// The explicit call stack: a node and how many successors it has
    /// tried.
    calls: Vec<(usize, usize)>,
    next: u32,
}

impl Tarjan {
    fn visit(&mut self, v: usize) {
        self.index[v] = self.next;
        self.low[v] = self.next;
        self.next += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
        self.calls.push((v, 0));
    }
}

/// Whether each function takes part in a cycle of the graph: its
/// component has other members, or it names itself.
pub fn recursive(edges: &[Vec<FunId>]) -> Vec<bool> {
    let mut out = vec![false; edges.len()];
    for scc in sccs(edges) {
        for &f in &scc {
            out[f.0 as usize] = scc.len() > 1 || edges[f.0 as usize].contains(&f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[&[u32]]) -> Vec<Vec<FunId>> {
        edges
            .iter()
            .map(|es| es.iter().map(|&e| FunId(e)).collect())
            .collect()
    }

    fn ids(sccs: Vec<Vec<FunId>>) -> Vec<Vec<u32>> {
        sccs.into_iter()
            .map(|s| s.into_iter().map(|f| f.0).collect())
            .collect()
    }

    #[test]
    fn callees_come_first_in_any_declaration_order() {
        // a → c, b, c, main → a, b: the order the old comparator sort
        // could not find.
        let g = graph(&[&[2], &[], &[], &[0, 1]]);
        assert_eq!(ids(sccs(&g)), vec![vec![2], vec![0], vec![1], vec![3]]);
    }

    #[test]
    fn cycles_are_one_component_in_ascending_order() {
        // 0 → 1 → 2 → 0, 3 → 2, 4 → 4.
        let g = graph(&[&[1], &[2], &[0], &[2], &[4]]);
        assert_eq!(ids(sccs(&g)), vec![vec![0, 1, 2], vec![3], vec![4]]);
        assert_eq!(recursive(&g), vec![true, true, true, false, true]);
    }

    #[test]
    fn a_long_chain_needs_no_recursion() {
        let n = 200_000u32;
        let g: Vec<Vec<FunId>> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![FunId(i + 1)]
                } else {
                    vec![]
                }
            })
            .collect();
        let order = sccs(&g);
        assert_eq!(order.len(), n as usize);
        assert_eq!(order[0], vec![FunId(n - 1)]);
        assert!(recursive(&g).iter().all(|r| !r));
    }

    #[test]
    fn out_of_range_successors_are_ignored() {
        let g = graph(&[&[7], &[0]]);
        assert_eq!(ids(sccs(&g)), vec![vec![0], vec![1]]);
    }
}
