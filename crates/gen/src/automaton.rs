//! The library-wide match automaton (DESIGN.md §2.6): every target pattern
//! of a transformation library compiled into one prefix tree, so the
//! optimizer's matcher binds a shared instruction prefix once for all the
//! rules that start with it instead of once per rule.
//!
//! A node is one pattern instruction — gate, pattern qubits, parameter
//! expressions — reached through the path of instructions above it. The
//! path fixes the node's wire predecessors (for each operand, the depth of
//! the last instruction above it on the same pattern qubit), so two rules
//! share a node exactly when their targets agree on every instruction up to
//! and including it. A node lists the rules whose target ends there; a rule
//! whose target is a strict prefix of another's ends at an interior node.
//!
//! The tree depends only on the targets, so it is built once per
//! [`crate::TransformationIndex`], on first use
//! ([`crate::TransformationIndex::automaton`]), and shared by every
//! optimizer, service slot and worker thread holding that index.

use quartz_ir::{Circuit, Instruction};

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
    /// The pattern instruction this node binds.
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

/// The shape of one rule's target, for sizing its match maps.
#[derive(Debug, Clone, Copy)]
struct RuleShape {
    /// The node where the target ends; `None` for an empty target, which
    /// never matches.
    terminal: Option<usize>,
    num_qubits: usize,
    num_params: usize,
}

/// A prefix tree over the target patterns of a rule list; rule ids are
/// positions in that list.
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
///
/// // `H H` is a prefix of `H H H`: three nodes, not five.
/// let automaton = MatchAutomaton::new([&hh, &hhh]);
/// assert_eq!(automaton.num_nodes(), 3);
/// assert_eq!(automaton.num_rules(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MatchAutomaton {
    nodes: Vec<AutomatonNode>,
    roots: Vec<usize>,
    rules: Vec<RuleShape>,
    max_qubits: usize,
    max_params: usize,
}

impl MatchAutomaton {
    /// Compiles the target patterns, in rule-id order, into one prefix
    /// tree.
    pub fn new<'a>(patterns: impl IntoIterator<Item = &'a Circuit>) -> Self {
        let mut automaton = MatchAutomaton {
            nodes: Vec::new(),
            roots: Vec::new(),
            rules: Vec::new(),
            max_qubits: 0,
            max_params: 0,
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
        automaton.rules.shrink_to_fit();
        automaton
    }

    fn insert(&mut self, pattern: &Circuit) {
        let rule = self.rules.len();
        // (depth, operand) of the last instruction on each pattern qubit.
        let mut last_on_qubit: Vec<Option<(usize, usize)>> = vec![None; pattern.num_qubits()];
        let mut at: Option<usize> = None;
        for (depth, instr) in pattern.instructions().iter().enumerate() {
            let siblings = match at {
                Some(node) => &self.nodes[node].children,
                None => &self.roots,
            };
            let existing = siblings
                .iter()
                .copied()
                .find(|&child| self.nodes[child].instr == *instr);
            let node = existing.unwrap_or_else(|| {
                let edges: Vec<Option<(usize, usize)>> =
                    instr.qubits.iter().map(|&q| last_on_qubit[q]).collect();
                let id = self.nodes.len();
                self.nodes.push(AutomatonNode {
                    instr: instr.clone(),
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
            });
            for (op, &q) in instr.qubits.iter().enumerate() {
                last_on_qubit[q] = Some((depth, op));
            }
            at = Some(node);
        }
        if let Some(node) = at {
            self.nodes[node].rules.push(rule);
        }
        self.rules.push(RuleShape {
            terminal: at,
            num_qubits: pattern.num_qubits(),
            num_params: pattern.num_params(),
        });
        self.max_qubits = self.max_qubits.max(pattern.num_qubits());
        self.max_params = self.max_params.max(pattern.num_params());
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

    /// Rule `rule`'s pattern qubit and parameter counts.
    pub fn rule_shape(&self, rule: usize) -> (usize, usize) {
        let shape = &self.rules[rule];
        (shape.num_qubits, shape.num_params)
    }

    /// The largest pattern qubit and parameter counts over every rule: the
    /// width of a match state that can hold a partial match of any rule.
    pub fn max_shape(&self) -> (usize, usize) {
        (self.max_qubits, self.max_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_ir::{Gate, ParamExpr};

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
        // a and b share H q0; cx q0 q1. c starts differently.
        assert_eq!(automaton.num_nodes(), 6);
        assert_eq!(automaton.roots().len(), 2);
        let cx = automaton.node(automaton.roots()[0]).children()[0];
        assert_eq!(automaton.node(cx).wire_preds(), &[Some(0), None]);
        assert_eq!(automaton.node(cx).anchor(), Some((0, 0)));
        assert_eq!(automaton.node(cx).children().len(), 2);
        let x = automaton.terminal(1).unwrap();
        assert_eq!(automaton.node(x).wire_preds(), &[Some(1)]);
        assert_eq!(automaton.node(x).anchor(), Some((1, 1)));
        assert_eq!(automaton.node(x).parent(), Some(cx));
        // In c the CNOT's control wire starts at the CNOT.
        let c_cx = automaton.terminal(2).unwrap();
        assert_eq!(automaton.node(c_cx).wire_preds(), &[None, Some(0)]);
        assert_eq!(automaton.node(c_cx).anchor(), Some((0, 0)));
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
        assert_eq!(automaton.rule_shape(2), (1, 0));
        assert_eq!(automaton.max_shape(), (3, 1));
    }
}
