//! Fixture: mailbox construction and mutation outside the delivery seam.

pub fn forge() -> RoundMailbox {
    let mut wire = RoundMailbox::new(8);
    wire.knock_out(3);
    wire.insert_group_if_vacant(0, &mut [1, 2], &7);
    wire
}
