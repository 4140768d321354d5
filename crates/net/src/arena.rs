//! Generational packet arena: pooled storage for packets in flight.
//!
//! The fabric's hot loop moves every packet through the event queue once per
//! hop, and through a router port's queue in between.
//! Carrying the full [`Packet`] through all of those made each schedule, pop,
//! enqueue and dequeue copy ~80 bytes; parking the payload here once, when a
//! host NIC puts it on the wire, leaves a POD [`PacketHandle`] (16 bytes: the
//! [`PacketRef`] plus the two things a queue asks of a packet) to make the
//! trip, and the slot storage is recycled through a free-list, so the steady
//! state allocates nothing.
//!
//! Safety against stale references is generational: every slot carries a
//! generation counter bumped when the packet is taken out, and a
//! [`PacketRef`] is only valid for the generation it was issued with. Leaks
//! (refs never redeemed) are observable via [`PacketArena::live`];
//! double-frees trip a generation debug-assertion and an occupancy panic.

use crate::packet::{Body, Ecn, Packet};
use crate::queue::Queued;

/// A POD handle to a packet parked in a [`PacketArena`].
///
/// Valid for exactly one [`PacketArena::take`]; redeeming it twice or after
/// the slot was recycled is a bug the arena detects (generation mismatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef {
    slot: u32,
    gen: u32,
}

/// What moves through the fabric in a parked packet's stead — port queues
/// and arrival events: its [`PacketRef`] plus the wire size and ECN
/// codepoint the queue disciplines read, so no hop short of the last touches
/// the arena slot for more than the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHandle {
    /// The parked packet.
    pub pkt: PacketRef,
    /// Its wire size in bytes.
    pub size: u32,
    /// Its ECN codepoint. An AQM's CE mark lands here first; the fabric
    /// writes it back to the parked packet when the port starts serializing.
    pub ecn: Ecn,
}

impl Queued for PacketHandle {
    #[inline]
    fn wire_size(&self) -> u32 {
        self.size
    }
    #[inline]
    fn ecn(&self) -> Ecn {
        self.ecn
    }
    #[inline]
    fn set_ecn(&mut self, codepoint: Ecn) {
        self.ecn = codepoint;
    }
}

/// Slot-recycling policy of a [`PacketArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaMode {
    /// Free slots are recycled through a free-list; the steady state
    /// allocates nothing. The default.
    Pooled,
    /// Every insert appends a fresh slot — allocation-per-packet reference
    /// behavior for differential tests against [`ArenaMode::Pooled`].
    Fresh,
}

struct ArenaSlot<B> {
    gen: u32,
    pkt: Option<Packet<B>>,
}

/// Generational free-list arena for packets in flight.
pub struct PacketArena<B> {
    slots: Vec<ArenaSlot<B>>,
    free: Vec<u32>,
    live: usize,
    mode: ArenaMode,
}

impl<B> Default for PacketArena<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> PacketArena<B> {
    /// Empty pooled arena.
    pub fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            mode: ArenaMode::Pooled,
        }
    }

    /// Switch the recycling policy. Only meaningful before traffic starts;
    /// existing slots keep their contents either way.
    pub fn set_mode(&mut self, mode: ArenaMode) {
        self.mode = mode;
    }

    /// The active recycling policy.
    pub fn mode(&self) -> ArenaMode {
        self.mode
    }

    /// Packets currently parked (inserted and not yet taken). A run that
    /// drains its event queue must end with `live() == 0` — anything else is
    /// a leak.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever created (the high-water mark of packets in flight
    /// under [`ArenaMode::Pooled`]).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Bytes the slots and the free list hold on the heap.
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<ArenaSlot<B>>() + self.free.capacity() * size_of::<u32>()
    }

    /// Park a packet; the returned handle redeems it exactly once.
    #[inline]
    pub fn insert(&mut self, pkt: Packet<B>) -> PacketRef {
        self.live += 1;
        if self.mode == ArenaMode::Pooled {
            if let Some(slot) = self.free.pop() {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.pkt.is_none(), "free-listed arena slot still occupied");
                s.pkt = Some(pkt);
                return PacketRef { slot, gen: s.gen };
            }
        }
        let slot = u32::try_from(self.slots.len()).expect("arena slot overflow");
        self.slots.push(ArenaSlot {
            gen: 0,
            pkt: Some(pkt),
        });
        PacketRef { slot, gen: 0 }
    }

    /// Redeem a handle, removing the packet and recycling the slot.
    ///
    /// Panics on an empty slot, and in debug builds asserts the generation
    /// matches — together these make double-frees and stale handles loud.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet<B> {
        let s = &mut self.slots[r.slot as usize];
        debug_assert_eq!(
            s.gen, r.gen,
            "stale PacketRef: slot recycled or double-freed"
        );
        let pkt = s
            .pkt
            .take()
            .expect("PacketRef redeemed twice: arena slot is empty");
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        if self.mode == ArenaMode::Pooled {
            self.free.push(r.slot);
        }
        pkt
    }

    /// A parked packet, without redeeming its handle.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet<B> {
        let s = &self.slots[r.slot as usize];
        debug_assert_eq!(s.gen, r.gen, "stale PacketRef");
        s.pkt.as_ref().expect("empty arena slot")
    }

    /// [`PacketArena::get`], mutably.
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet<B> {
        let s = &mut self.slots[r.slot as usize];
        debug_assert_eq!(s.gen, r.gen, "stale PacketRef");
        s.pkt.as_mut().expect("empty arena slot")
    }
}

impl<B: Body> PacketArena<B> {
    /// [`PacketArena::insert`], returning the handle that travels in the
    /// packet's stead.
    #[inline]
    pub fn park(&mut self, pkt: Packet<B>) -> PacketHandle {
        let (size, ecn) = (pkt.wire_size(), pkt.body.ecn());
        PacketHandle {
            pkt: self.insert(pkt),
            size,
            ecn,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, RawBody};
    use rss_sim::SimTime;

    fn pkt(id: u64) -> Packet<RawBody> {
        Packet {
            id,
            src: NodeId(0),
            dst: NodeId(1),
            flow: FlowId(0),
            created: SimTime::ZERO,
            body: RawBody { size: 1500 },
        }
    }

    #[test]
    fn roundtrip_preserves_packet() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(7));
        assert_eq!(a.live(), 1);
        let p = a.take(r);
        assert_eq!(p.id, 7);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn pooled_mode_recycles_slots() {
        let mut a = PacketArena::new();
        let r0 = a.insert(pkt(0));
        a.take(r0);
        let r1 = a.insert(pkt(1));
        assert_eq!(a.slot_count(), 1, "slot must be recycled");
        assert_ne!(r0, r1, "recycled handle must differ by generation");
        assert_eq!(a.take(r1).id, 1);
    }

    #[test]
    fn fresh_mode_never_recycles() {
        let mut a = PacketArena::new();
        a.set_mode(ArenaMode::Fresh);
        let r0 = a.insert(pkt(0));
        a.take(r0);
        a.insert(pkt(1));
        assert_eq!(a.slot_count(), 2, "fresh mode must append a new slot");
    }

    // Debug builds trip the generation assertion, release builds the
    // empty-slot panic; "PacketRef" is in both messages.
    #[test]
    #[should_panic(expected = "PacketRef")]
    fn double_take_panics() {
        let mut a = PacketArena::new();
        a.set_mode(ArenaMode::Fresh); // keep the slot empty instead of recycled
        let r = a.insert(pkt(0));
        a.take(r);
        a.take(r);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_ref_into_recycled_slot_is_detected() {
        let mut a = PacketArena::new();
        let r0 = a.insert(pkt(0));
        a.take(r0);
        let _r1 = a.insert(pkt(1)); // recycles slot 0 at generation 1
        a.take(r0); // stale generation 0 handle
    }

    #[test]
    fn interleaved_traffic_keeps_exact_live_count() {
        let mut a = PacketArena::new();
        let mut held = Vec::new();
        for wave in 0..10u64 {
            for i in 0..32 {
                held.push(a.insert(pkt(wave * 32 + i)));
            }
            // Drain in FIFO order (opposite of the LIFO free-list) to mix
            // recycled and fresh slots.
            for r in held.drain(..16) {
                a.take(r);
            }
        }
        assert_eq!(a.live(), held.len());
        for r in held {
            a.take(r);
        }
        assert_eq!(a.live(), 0);
        assert!(a.slot_count() <= 32 * 10);
    }
}
