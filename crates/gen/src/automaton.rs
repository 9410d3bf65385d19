//! The library-wide match automaton (DESIGN.md §2.6): every target pattern
//! of a transformation library compiled into one prefix tree, so the
//! optimizer's matcher binds a shared instruction prefix once for all the
//! rules that start with it instead of once per rule.
//!
//! Targets are compiled under *canonical labels*: each target's qubits and
//! parameters are renumbered in order of first appearance, and every
//! parameter coefficient vector is padded to the widest `num_params` of the
//! rule list. Targets that agree up to a renaming of qubits or parameters
//! (`h q0` and `h q1`, `rz(p0)` and `rz(p1)`, `cx q0, q1` and `cx q1, q0`)
//! therefore share their nodes. Each rule keeps its [`RuleLabels`], the map
//! from its own labels to the canonical ones, so a walk that binds canonical
//! labels can report every match in the rule's own labels.
//!
//! A node is one canonical pattern instruction — gate, canonical qubits,
//! canonical parameter expressions — reached through the path of
//! instructions above it. The path fixes the node's wire predecessors (for
//! each operand, the depth of the last instruction above it on the same
//! pattern qubit), so two rules share a node exactly when their canonical
//! targets agree on every instruction up to and including it. A node lists
//! the rules whose target ends there; a rule whose target is a strict prefix
//! of another's ends at an interior node.
//!
//! The tree depends only on the targets, so it is built once per
//! [`crate::TransformationIndex`], on first use
//! ([`crate::TransformationIndex::automaton`]), and shared by every
//! optimizer, service slot and worker thread holding that index.

use quartz_ir::{Circuit, Instruction, ParamExpr};

/// One pattern instruction in the prefix tree, with what the matcher needs
/// to extend a partial match by it.
#[derive(Debug, Clone)]
pub struct AutomatonNode {
    instr: Instruction,
    /// Per operand: the depth of the pattern instruction last on the same
    /// pattern qubit above this node, or `None` where the wire starts here.
    wire_preds: Vec<Option<usize>>,
    /// The first operand with a predecessor, as (predecessor depth, operand
    /// of the predecessor on the shared qubit): the one wire edge whose
    /// circuit successor is the only possible match of this node.
    anchor: Option<(usize, usize)>,
    parent: Option<usize>,
    children: Vec<usize>,
    rules: Vec<usize>,
}

impl AutomatonNode {
    /// The pattern instruction this node binds, in canonical labels.
    pub fn instruction(&self) -> &Instruction {
        &self.instr
    }

    /// Per operand, the depth (0-based position on the path from the root)
    /// of the pattern predecessor on that operand's wire, or `None` where
    /// the pattern wire starts at this node.
    pub fn wire_preds(&self) -> &[Option<usize>] {
        &self.wire_preds
    }

    /// The wire edge anchoring this node, as (predecessor depth, operand of
    /// the predecessor): the circuit successor of the predecessor's match on
    /// that operand is this node's only candidate. `None` when the node
    /// starts every one of its wires, so its candidates are all circuit
    /// gates of its type.
    pub fn anchor(&self) -> Option<(usize, usize)> {
        self.anchor
    }

    /// The parent node, or `None` for a root (a first pattern instruction).
    pub fn parent(&self) -> Option<usize> {
        self.parent
    }

    /// The nodes extending this one by one more pattern instruction.
    pub fn children(&self) -> &[usize] {
        &self.children
    }

    /// The rules whose target ends at this node, ascending.
    pub fn rules(&self) -> &[usize] {
        &self.rules
    }
}

/// How one rule's own pattern labels map to the canonical labels the tree
/// binds: entry `i` of `qubits` is the canonical qubit of the rule's qubit
/// `i`, and likewise for `params`. `None` marks a qubit or parameter the
/// target never uses. The vectors have the rule's own widths, so a match
/// reported through them has the rule's `num_qubits` and `num_params`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleLabels {
    /// Per rule qubit: its canonical qubit.
    pub qubits: Vec<Option<usize>>,
    /// Per rule parameter: its canonical parameter.
    pub params: Vec<Option<usize>>,
}

/// One compiled rule: where its target ends and how its labels map.
#[derive(Debug, Clone)]
struct Rule {
    /// The node where the target ends; `None` for an empty target, which
    /// never matches.
    terminal: Option<usize>,
    labels: RuleLabels,
}

/// A prefix tree over the canonically relabeled target patterns of a rule
/// list; rule ids are positions in that list.
///
/// # Examples
///
/// ```
/// use quartz_gen::MatchAutomaton;
/// use quartz_ir::{Circuit, Gate, Instruction};
///
/// let h = |q| Instruction::new(Gate::H, vec![q], vec![]);
/// let mut hh = Circuit::new(1, 0);
/// hh.push(h(0));
/// hh.push(h(0));
/// let mut hhh = hh.clone();
/// hhh.push(h(0));
/// // `H H` on another qubit is the same target up to renaming.
/// let mut hh_on_q1 = Circuit::new(2, 0);
/// hh_on_q1.push(h(1));
/// hh_on_q1.push(h(1));
///
/// // `H H` is a prefix of `H H H`: three nodes, not seven.
/// let automaton = MatchAutomaton::new([&hh, &hhh, &hh_on_q1]);
/// assert_eq!(automaton.num_nodes(), 3);
/// assert_eq!(automaton.num_rules(), 3);
/// assert_eq!(automaton.rule_labels(2).qubits, [None, Some(0)]);
/// ```
#[derive(Debug, Clone)]
pub struct MatchAutomaton {
    nodes: Vec<AutomatonNode>,
    roots: Vec<usize>,
    rules: Vec<Rule>,
    max_qubits: usize,
    max_params: usize,
}

impl MatchAutomaton {
    /// Compiles the target patterns, in rule-id order, into one prefix
    /// tree under canonical labels.
    pub fn new<'a>(patterns: impl IntoIterator<Item = &'a Circuit>) -> Self {
        let patterns: Vec<&Circuit> = patterns.into_iter().collect();
        let mut automaton = MatchAutomaton {
            nodes: Vec::new(),
            roots: Vec::new(),
            rules: Vec::with_capacity(patterns.len()),
            max_qubits: patterns.iter().map(|p| p.num_qubits()).max().unwrap_or(0),
            max_params: patterns.iter().map(|p| p.num_params()).max().unwrap_or(0),
        };
        for pattern in patterns {
            automaton.insert(pattern);
        }
        // The tree lives as long as its index: drop the growth slack.
        for node in &mut automaton.nodes {
            node.children.shrink_to_fit();
            node.rules.shrink_to_fit();
        }
        automaton.nodes.shrink_to_fit();
        automaton
    }

    fn insert(&mut self, pattern: &Circuit) {
        let rule = self.rules.len();
        let (instrs, labels) = canonical_target(pattern, self.max_params);
        // (depth, operand) of the last instruction on each canonical qubit.
        let mut last_on_qubit: Vec<Option<(usize, usize)>> = vec![None; pattern.num_qubits()];
        let mut at: Option<usize> = None;
        for (depth, instr) in instrs.into_iter().enumerate() {
            let siblings = match at {
                Some(node) => &self.nodes[node].children,
                None => &self.roots,
            };
            let existing = siblings
                .iter()
                .copied()
                .find(|&child| self.nodes[child].instr == instr);
            let node = match existing {
                Some(node) => node,
                None => {
                    let edges: Vec<Option<(usize, usize)>> =
                        instr.qubits.iter().map(|&q| last_on_qubit[q]).collect();
                    let id = self.nodes.len();
                    self.nodes.push(AutomatonNode {
                        instr,
                        wire_preds: edges.iter().map(|e| e.map(|(d, _)| d)).collect(),
                        anchor: edges.iter().flatten().copied().next(),
                        parent: at,
                        children: Vec::new(),
                        rules: Vec::new(),
                    });
                    match at {
                        Some(parent) => self.nodes[parent].children.push(id),
                        None => self.roots.push(id),
                    }
                    id
                }
            };
            for (op, &q) in self.nodes[node].instr.qubits.iter().enumerate() {
                last_on_qubit[q] = Some((depth, op));
            }
            at = Some(node);
        }
        if let Some(node) = at {
            self.nodes[node].rules.push(rule);
        }
        self.rules.push(Rule {
            terminal: at,
            labels,
        });
    }

    /// The node with id `id`.
    pub fn node(&self, id: usize) -> &AutomatonNode {
        &self.nodes[id]
    }

    /// The nodes binding a first pattern instruction.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Number of nodes (pattern instructions after prefix sharing).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of compiled rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// The node where rule `rule`'s target ends, or `None` for an empty
    /// target.
    pub fn terminal(&self, rule: usize) -> Option<usize> {
        self.rules[rule].terminal
    }

    /// How rule `rule`'s own qubit and parameter labels map to the
    /// canonical labels its path binds.
    pub fn rule_labels(&self, rule: usize) -> &RuleLabels {
        &self.rules[rule].labels
    }

    /// The largest pattern qubit and parameter counts over every rule: the
    /// width of a match state that can hold a partial match of any rule,
    /// in its own labels or in canonical ones.
    pub fn max_shape(&self) -> (usize, usize) {
        (self.max_qubits, self.max_params)
    }
}

/// `pattern`'s instructions under canonical labels — qubits and parameters
/// renumbered in order of first appearance, coefficient vectors padded to
/// `width` parameters — and the map from the pattern's labels to them.
fn canonical_target(pattern: &Circuit, width: usize) -> (Vec<Instruction>, RuleLabels) {
    let mut labels = RuleLabels {
        qubits: vec![None; pattern.num_qubits()],
        params: vec![None; pattern.num_params()],
    };
    let (mut next_qubit, mut next_param) = (0, 0);
    let instrs = pattern
        .instructions()
        .iter()
        .map(|instr| {
            let qubits = instr
                .qubits
                .iter()
                .map(|&q| {
                    *labels.qubits[q].get_or_insert_with(|| {
                        next_qubit += 1;
                        next_qubit - 1
                    })
                })
                .collect();
            let params = instr
                .params
                .iter()
                .map(|expr| {
                    let mut coeffs = vec![0; width];
                    for (p, &k) in expr.coeffs().iter().enumerate() {
                        if k != 0 {
                            let canonical = *labels.params[p].get_or_insert_with(|| {
                                next_param += 1;
                                next_param - 1
                            });
                            coeffs[canonical] = k;
                        }
                    }
                    ParamExpr::from_parts(coeffs, expr.const_pi4())
                })
                .collect();
            Instruction::new(instr.gate, qubits, params)
        })
        .collect();
    (instrs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::Gate;

    fn pattern(instrs: &[(Gate, &[usize])]) -> Circuit {
        let mut c = Circuit::new(3, 1);
        for &(gate, qubits) in instrs {
            let params = vec![ParamExpr::var(0, 1); gate.num_params()];
            c.push(Instruction::new(gate, qubits.to_vec(), params));
        }
        c
    }

    #[test]
    fn shared_prefixes_share_nodes_and_fix_wire_predecessors() {
        let a = pattern(&[(Gate::H, &[0]), (Gate::Cnot, &[0, 1]), (Gate::H, &[0])]);
        let b = pattern(&[(Gate::H, &[0]), (Gate::Cnot, &[0, 1]), (Gate::X, &[1])]);
        let c = pattern(&[(Gate::H, &[1]), (Gate::Cnot, &[0, 1])]);
        let automaton = MatchAutomaton::new([&a, &b, &c]);
        // a and b share H q0; cx q0 q1. c's `h q1` is `h q0` under canonical
        // labels, so it shares the root; its CNOT, `cx q1, q0` canonically,
        // branches off there.
        assert_eq!(automaton.num_nodes(), 5);
        assert_eq!(automaton.roots().len(), 1);
        let root = automaton.roots()[0];
        let cx = automaton.node(root).children()[0];
        assert_eq!(automaton.node(cx).wire_preds(), &[Some(0), None]);
        assert_eq!(automaton.node(cx).anchor(), Some((0, 0)));
        assert_eq!(automaton.node(cx).children().len(), 2);
        let x = automaton.terminal(1).unwrap();
        assert_eq!(automaton.node(x).wire_preds(), &[Some(1)]);
        assert_eq!(automaton.node(x).anchor(), Some((1, 1)));
        assert_eq!(automaton.node(x).parent(), Some(cx));
        // In c the CNOT's control wire starts at the CNOT.
        let c_cx = automaton.terminal(2).unwrap();
        assert_eq!(automaton.node(c_cx).parent(), Some(root));
        assert_eq!(automaton.node(c_cx).instruction().qubits, [1, 0]);
        assert_eq!(automaton.node(c_cx).wire_preds(), &[None, Some(0)]);
        assert_eq!(automaton.node(c_cx).anchor(), Some((0, 0)));
        assert_eq!(automaton.rule_labels(2).qubits, [Some(1), Some(0), None]);
    }

    /// Two targets that differ only by a qubit and a parameter permutation
    /// (and by their declared parameter count) compile to one path.
    #[test]
    fn targets_equal_up_to_renaming_share_every_node() {
        let rz = |q: usize, p: usize, m: usize| {
            Instruction::new(Gate::Rz, vec![q], vec![ParamExpr::var(p, m)])
        };
        let mut a = Circuit::new(2, 2);
        a.push(rz(0, 0, 2));
        a.push(Instruction::new(Gate::Cnot, vec![0, 1], vec![]));
        a.push(rz(1, 1, 2));
        let mut b = Circuit::new(2, 3);
        b.push(rz(1, 2, 3));
        b.push(Instruction::new(Gate::Cnot, vec![1, 0], vec![]));
        b.push(rz(0, 0, 3));
        let automaton = MatchAutomaton::new([&a, &b]);
        assert_eq!(automaton.num_nodes(), 3);
        assert_eq!(automaton.roots().len(), 1);
        assert_eq!(automaton.terminal(0), automaton.terminal(1));
        assert_eq!(
            automaton.node(automaton.terminal(0).unwrap()).rules(),
            &[0, 1]
        );
        // Coefficient vectors are padded to the widest rule's parameters.
        let root = automaton.node(automaton.roots()[0]).instruction();
        assert_eq!(root.params, [ParamExpr::var(0, 3)]);
        assert_eq!(
            automaton.rule_labels(0),
            &RuleLabels {
                qubits: vec![Some(0), Some(1)],
                params: vec![Some(0), Some(1)],
            }
        );
        assert_eq!(
            automaton.rule_labels(1),
            &RuleLabels {
                qubits: vec![Some(1), Some(0)],
                params: vec![Some(1), None, Some(0)],
            }
        );
    }

    /// A qubit or parameter the target never uses has no canonical label,
    /// and the rule keeps its declared widths.
    #[test]
    fn unused_qubits_and_parameters_get_no_label() {
        let mut t = Circuit::new(3, 2);
        t.push(Instruction::new(
            Gate::Rz,
            vec![2],
            vec![ParamExpr::var(1, 2)],
        ));
        let automaton = MatchAutomaton::new([&t]);
        let root = automaton.node(automaton.roots()[0]).instruction();
        assert_eq!(root.qubits, [0]);
        assert_eq!(root.params, [ParamExpr::var(0, 2)]);
        assert_eq!(automaton.rule_labels(0).qubits, [None, None, Some(0)]);
        assert_eq!(automaton.rule_labels(0).params, [None, Some(0)]);
    }

    #[test]
    fn prefixes_duplicates_and_empty_targets_get_their_terminals() {
        let hh = pattern(&[(Gate::H, &[0]), (Gate::H, &[0])]);
        let hhh = pattern(&[(Gate::H, &[0]), (Gate::H, &[0]), (Gate::H, &[0])]);
        let empty = Circuit::new(1, 0);
        let automaton = MatchAutomaton::new([&hhh, &hh, &empty, &hh]);
        assert_eq!(automaton.num_nodes(), 3);
        let interior = automaton.terminal(1).unwrap();
        assert_eq!(automaton.node(interior).rules(), &[1, 3]);
        assert_eq!(automaton.node(interior).children().len(), 1);
        assert_eq!(automaton.terminal(2), None);
        assert_eq!(
            automaton.rule_labels(2),
            &RuleLabels {
                qubits: vec![None],
                params: vec![],
            }
        );
        assert_eq!(automaton.max_shape(), (3, 1));
    }
}
