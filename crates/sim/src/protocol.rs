//! The node-side protocol trait.

use crate::id::Round;
use crate::mailbox::Inbox;
use crate::message::{Emission, Message};
use rand::RngCore;

/// A synchronous protocol, as run by one (honest) node.
///
/// The engine drives every live honest node through the same two steps
/// each round:
///
/// 1. [`Protocol::emit`] — produce this round's outgoing messages,
///    drawing any randomness *now* (a rushing adversary will see these
///    messages, including fresh coin flips, before acting);
/// 2. [`Protocol::receive`] — process the messages delivered this round
///    (sender identities attached) and update state.
///
/// A node signals completion via [`Protocol::halted`]; once true, the
/// engine stops invoking it. A node that wants to "broadcast once more and
/// terminate" (paper, Algorithm 3 lines 9–10) should return that final
/// broadcast from `emit` and set its halted flag in the same call: the
/// emission is still delivered, but `receive` will no longer be invoked.
///
/// Corrupted nodes are never stepped: the adversary speaks for them.
pub trait Protocol: Sized {
    /// Wire message type of the protocol.
    type Msg: Message;

    /// Produce this round's outgoing messages.
    fn emit(&mut self, round: Round, rng: &mut dyn RngCore) -> Emission<Self::Msg>;

    /// Process this round's inbox.
    fn receive(&mut self, round: Round, inbox: Inbox<'_, Self::Msg>, rng: &mut dyn RngCore);

    /// The node's decided output, if it has decided.
    fn output(&self) -> Option<bool>;

    /// Whether the node has terminated.
    fn halted(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::NodeId;

    // A minimal protocol to exercise the trait surface.
    #[derive(Debug)]
    struct Echo {
        me: NodeId,
        seen: usize,
        done: bool,
    }

    #[derive(Debug, Clone)]
    struct Ping;
    impl Message for Ping {
        fn bit_size(&self) -> usize {
            1
        }
    }

    impl Protocol for Echo {
        type Msg = Ping;
        fn emit(&mut self, _round: Round, _rng: &mut dyn RngCore) -> Emission<Ping> {
            Emission::Broadcast(Ping)
        }
        fn receive(&mut self, _round: Round, inbox: Inbox<'_, Ping>, _rng: &mut dyn RngCore) {
            self.seen = inbox.iter().count();
            self.done = true;
        }
        fn output(&self) -> Option<bool> {
            self.done.then_some(true)
        }
        fn halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn trait_is_usable_directly() {
        use crate::mailbox::RoundMailbox;
        use crate::plane::MessagePlane;
        use rand::SeedableRng;

        let mut node = Echo {
            me: NodeId::new(0),
            seen: 0,
            done: false,
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut mb = RoundMailbox::new(2);
        let e = node.emit(Round::ZERO, &mut rng);
        mb.set(node.me, e);
        node.receive(Round::ZERO, mb.inbox(node.me), &mut rng);
        assert_eq!(node.seen, 1);
        assert!(node.halted());
        assert_eq!(node.output(), Some(true));
    }
}
