//! Message trait and the emission type shared by honest nodes and the
//! adversary.

use crate::id::NodeId;
use std::fmt::Debug;

/// A protocol message.
///
/// Implementors must report an honest estimate of their encoded size in
/// bits via [`Message::bit_size`]; the engine uses it for CONGEST
/// accounting (the paper's model allows `O(log n)` bits per edge per
/// round — experiments assert the measured maximum stays within that
/// budget).
pub trait Message: Clone + Debug {
    /// Size of this message on the wire, in bits.
    ///
    /// The estimate should include every field a real encoding would carry
    /// (tags, counters, flags) but not the sender/receiver IDs, which the
    /// transport provides.
    fn bit_size(&self) -> usize;
}

/// What a node (or the adversary, on behalf of a corrupted node) sends in
/// one round.
///
/// Honest protocols in this workspace only ever broadcast or stay silent;
/// `PerRecipient` exists so that Byzantine nodes can *equivocate* — send
/// conflicting messages to different recipients in the same round — which
/// is essential to the adaptive-adversary experiments.
#[derive(Debug, Clone)]
pub enum Emission<M> {
    /// Send nothing this round.
    Silent,
    /// Send the same message to every node (including the sender itself:
    /// the paper's tallies, e.g. Algorithm 1 line 3, count the node's own
    /// value).
    Broadcast(M),
    /// Send a chosen message to each listed recipient; unlisted recipients
    /// receive nothing from this sender. Later entries for the same
    /// recipient override earlier ones.
    PerRecipient(Vec<(NodeId, M)>),
}
