//! Direct unit tests of Algorithm 3's per-round threshold logic, using
//! hand-crafted mailboxes instead of full simulations — each test is one
//! sentence of the paper made executable.

use aba_agreement::{BaConfig, BaMsg, BaNodeView, CommitteeBa, SubRound};
use aba_sim::{Emission, MessagePlane, NodeId, Protocol, Round, RoundMailbox};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const N: usize = 10;
const T: usize = 3;

fn node(input: bool) -> CommitteeBa {
    let cfg = BaConfig::paper_las_vegas(N, T, 2.0).unwrap();
    CommitteeBa::new(cfg, NodeId::new(9), input)
}

fn phase_msg(phase: u64, sub: SubRound, val: bool, decided: bool) -> BaMsg {
    BaMsg::Phase {
        phase,
        sub,
        val,
        decided,
        flip: None,
    }
}

/// Feeds a node one receive step with the given per-sender messages.
fn deliver(node: &mut CommitteeBa, round: u64, msgs: &[(u32, BaMsg)]) {
    let mut mb: RoundMailbox<BaMsg> = RoundMailbox::new(N);
    for (sender, m) in msgs {
        mb.set(NodeId::new(*sender), Emission::Broadcast(*m));
    }
    let mut rng = SmallRng::seed_from_u64(7);
    node.receive(Round::new(round), mb.inbox(NodeId::new(9)), &mut rng);
}

/// Emits (to advance the node's internal phase tracking) and discards.
fn tick_emit(node: &mut CommitteeBa, round: u64) {
    let mut rng = SmallRng::seed_from_u64(7);
    let _ = node.emit(Round::new(round), &mut rng);
}

#[test]
fn round1_exactly_n_minus_t_identical_decides() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    // n − t = 7 senders say true.
    let msgs: Vec<(u32, BaMsg)> = (0..7)
        .map(|s| (s, phase_msg(1, SubRound::One, true, false)))
        .collect();
    deliver(&mut v, 0, &msgs);
    assert!(v.ba_decided(), "exactly n−t identical values must decide");
    assert!(v.ba_val());
}

#[test]
fn round1_n_minus_t_minus_one_does_not_decide() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    let msgs: Vec<(u32, BaMsg)> = (0..6)
        .map(|s| (s, phase_msg(1, SubRound::One, true, false)))
        .collect();
    deliver(&mut v, 0, &msgs);
    assert!(!v.ba_decided(), "n−t−1 must not clear the threshold");
}

#[test]
fn round1_mixed_values_below_threshold_clears_decided() {
    let mut v = node(true);
    tick_emit(&mut v, 0);
    // 5 true / 5 false — nobody reaches 7.
    let msgs: Vec<(u32, BaMsg)> = (0..10)
        .map(|s| (s, phase_msg(1, SubRound::One, s % 2 == 0, false)))
        .collect();
    deliver(&mut v, 0, &msgs);
    assert!(!v.ba_decided());
}

#[test]
fn round1_wrong_phase_messages_are_ignored() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    // 7 identical values but tagged phase 2 — framing violation.
    let msgs: Vec<(u32, BaMsg)> = (0..7)
        .map(|s| (s, phase_msg(2, SubRound::One, true, false)))
        .collect();
    deliver(&mut v, 0, &msgs);
    assert!(
        !v.ba_decided(),
        "messages from the wrong phase must be ignored"
    );
}

#[test]
fn round1_wrong_subround_messages_are_ignored() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    let msgs: Vec<(u32, BaMsg)> = (0..7)
        .map(|s| (s, phase_msg(1, SubRound::Two, true, true)))
        .collect();
    deliver(&mut v, 0, &msgs);
    assert!(
        !v.ba_decided(),
        "round-2 messages must not count in round 1"
    );
}

#[test]
fn round2_case1_n_minus_t_trues_sets_finish() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]); // round 1: nothing
    tick_emit(&mut v, 1);
    let msgs: Vec<(u32, BaMsg)> = (0..7)
        .map(|s| (s, phase_msg(1, SubRound::Two, true, true)))
        .collect();
    deliver(&mut v, 1, &msgs);
    assert!(v.ba_finished(), "case 1: n−t Trues must set finish");
    assert!(v.ba_val() && v.ba_decided());
}

#[test]
fn round2_case2_t_plus_one_trues_adopts_without_finish() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]);
    tick_emit(&mut v, 1);
    // Exactly t + 1 = 4 Trues.
    let msgs: Vec<(u32, BaMsg)> = (0..4)
        .map(|s| (s, phase_msg(1, SubRound::Two, true, true)))
        .collect();
    deliver(&mut v, 1, &msgs);
    assert!(v.ba_decided() && v.ba_val());
    assert!(!v.ba_finished(), "t+1 adopts but must not finish");
}

#[test]
fn round2_t_trues_falls_to_the_coin() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]);
    tick_emit(&mut v, 1);
    // Only t = 3 Trues — below the t+1 threshold: case 3.
    let mut msgs: Vec<(u32, BaMsg)> = (0..3)
        .map(|s| (s, phase_msg(1, SubRound::Two, true, true)))
        .collect();
    // Committee flips: committee for phase 1 holds the low IDs; a lone
    // −1 flip drives the sum negative.
    msgs.push((
        0,
        BaMsg::Phase {
            phase: 1,
            sub: SubRound::Two,
            val: true,
            decided: true,
            flip: Some(-1),
        },
    ));
    deliver(&mut v, 1, &msgs);
    assert!(!v.ba_decided(), "coin resets decided (line 31)");
    assert!(!v.ba_val(), "sum = −1 < 0 ⇒ coin value 0");
    assert!(!v.ba_finished());
}

#[test]
fn round2_decided_false_messages_never_count_toward_thresholds() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]);
    tick_emit(&mut v, 1);
    // All n senders say (true, decided=false): no threshold can fire.
    let msgs: Vec<(u32, BaMsg)> = (0..10)
        .map(|s| (s, phase_msg(1, SubRound::Two, true, false)))
        .collect();
    deliver(&mut v, 1, &msgs);
    assert!(!v.ba_decided());
    assert!(!v.ba_finished());
}

#[test]
fn round2_flips_from_non_committee_senders_are_ignored() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]);
    tick_emit(&mut v, 1);
    let cfg = BaConfig::paper_las_vegas(N, T, 2.0).unwrap();
    let committee = cfg.committee_for_phase(1);
    // A non-member floods −1 flips; one member sends +1. Sum must be +1.
    let non_member = (0..N as u32)
        .find(|id| !cfg.plan.is_member(NodeId::new(*id), committee))
        .expect("some non-member exists");
    let member = (0..N as u32)
        .find(|id| cfg.plan.is_member(NodeId::new(*id), committee))
        .expect("some member exists");
    let msgs = vec![
        (
            non_member,
            BaMsg::Phase {
                phase: 1,
                sub: SubRound::Two,
                val: false,
                decided: false,
                flip: Some(-1),
            },
        ),
        (
            member,
            BaMsg::Phase {
                phase: 1,
                sub: SubRound::Two,
                val: false,
                decided: false,
                flip: Some(1),
            },
        ),
    ];
    deliver(&mut v, 1, &msgs);
    assert!(
        v.ba_val(),
        "only the member's +1 counts: sum = 1 ≥ 0 ⇒ coin 1"
    );
}

#[test]
fn garbage_flip_values_are_clamped_not_amplified() {
    let mut v = node(false);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]);
    tick_emit(&mut v, 1);
    let cfg = BaConfig::paper_las_vegas(N, T, 2.0).unwrap();
    let committee = cfg.committee_for_phase(1);
    let members: Vec<u32> = (0..N as u32)
        .filter(|id| cfg.plan.is_member(NodeId::new(*id), committee))
        .collect();
    assert!(members.len() >= 2, "need two members for this test");
    // One member sends flip=127 (garbage): clamps to +1, so it cannot
    // outvote the other member's −1 plus... with two members: +1 −1 = 0 ≥ 0.
    let msgs = vec![
        (
            members[0],
            BaMsg::Phase {
                phase: 1,
                sub: SubRound::Two,
                val: false,
                decided: false,
                flip: Some(127),
            },
        ),
        (
            members[1],
            BaMsg::Phase {
                phase: 1,
                sub: SubRound::Two,
                val: false,
                decided: false,
                flip: Some(-1),
            },
        ),
    ];
    deliver(&mut v, 1, &msgs);
    assert!(v.ba_val(), "clamped +1 and −1 tie to 0 ⇒ coin 1");
}

#[test]
fn empty_inbox_round2_takes_coin_with_zero_sum() {
    let mut v = node(true);
    tick_emit(&mut v, 0);
    deliver(&mut v, 0, &[]);
    tick_emit(&mut v, 1);
    deliver(&mut v, 1, &[]);
    // Sum of zero committee flips is 0 ⇒ coin outputs 1 (sum ≥ 0 rule).
    assert!(v.ba_val());
    assert!(!v.ba_decided());
}

#[test]
fn emit_round2_committee_member_attaches_flip() {
    // Node 9 sits in the last committee; find a phase where it flips.
    let cfg = BaConfig::paper_las_vegas(N, T, 2.0).unwrap();
    let my_committee = cfg.plan.committee_of(NodeId::new(9));
    // Phase whose committee is ours (1-based).
    let phase = (1..=cfg.plan.count() as u64)
        .find(|p| cfg.committee_for_phase(*p) == my_committee)
        .unwrap();
    let round = (phase - 1) * cfg.rounds_per_phase() + 1; // subround 2
    let mut v = node(true);
    let mut rng = SmallRng::seed_from_u64(3);
    // Advance emit through earlier rounds so internal phase tracking is sane.
    for r in 0..round {
        let _ = v.emit(Round::new(r), &mut rng);
        // Feed empty inboxes to advance.
        let mb: RoundMailbox<BaMsg> = RoundMailbox::new(N);
        v.receive(Round::new(r), mb.inbox(NodeId::new(9)), &mut rng);
    }
    let emission = v.emit(Round::new(round), &mut rng);
    match emission {
        Emission::Broadcast(BaMsg::Phase { flip, sub, .. }) => {
            assert_eq!(sub, SubRound::Two);
            assert!(flip.is_some(), "committee member must flip in its phase");
            assert!(v.ba_flip().is_some());
        }
        other => panic!("expected a round-2 broadcast, got {other:?}"),
    }
}
