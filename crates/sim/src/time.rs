//! Simulation time types.
//!
//! Simulation time is kept as an integer count of nanoseconds since the start
//! of the run. Integer time makes event ordering exact: two runs with the same
//! seed execute the identical event sequence, which the reproduction relies on
//! (the paper's Figure 1 is a time series of discrete events).

use core::fmt;
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Number of nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Number of nanoseconds in one millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in one microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// An absolute instant on the simulation clock, in nanoseconds since t = 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span between two [`SimTime`] instants, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Panics on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting; not used for ordering).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Panics on negative or non-finite input.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by an integer factor, saturating at the maximum.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// The wall-clock time to serialize `bytes` at `bits_per_sec` onto a link.
    ///
    /// This is the canonical rate → time conversion used by every transmitter
    /// in the simulator (NICs and router ports), so rounding is centralised
    /// here: round *up* to the next nanosecond so a transmitter can never send
    /// faster than its configured rate.
    #[inline]
    pub fn for_bytes_at_rate(bytes: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "zero link rate");
        // Every packet (anything under 2.3 GB) fits the 64-bit product; the
        // 128-bit division is a library call, and this is called once per
        // transmitted packet.
        match bytes.checked_mul(8 * NANOS_PER_SEC) {
            Some(bit_nanos) => SimDuration(bit_nanos.div_ceil(bits_per_sec)),
            None => Self::for_bytes_at_rate_wide(bytes, bits_per_sec),
        }
    }

    /// [`Self::for_bytes_at_rate`] in 128 bits, saturating. Out of line so
    /// the inlined fast path stays a multiply and a divide.
    #[cold]
    #[inline(never)]
    fn for_bytes_at_rate_wide(bytes: u64, bits_per_sec: u64) -> SimDuration {
        let bits = bytes as u128 * 8;
        let nanos = (bits * NANOS_PER_SEC as u128).div_ceil(bits_per_sec as u128);
        SimDuration(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// The two nanosecond counts an [`OptNanos`] can hold: [`SimTime`] and
/// [`SimDuration`].
pub trait Nanos: Copy {
    /// The raw nanosecond count.
    fn to_nanos(self) -> u64;
    /// The value of a raw nanosecond count.
    fn of_nanos(nanos: u64) -> Self;
}

impl Nanos for SimTime {
    #[inline]
    fn to_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    fn of_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }
}

impl Nanos for SimDuration {
    #[inline]
    fn to_nanos(self) -> u64 {
        self.0
    }
    #[inline]
    fn of_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }
}

/// An optional [`SimTime`] or [`SimDuration`] in the 8 bytes of the value:
/// `u64::MAX` nanoseconds means none. An `Option<SimTime>` takes 16 bytes,
/// half of them its discriminant, and a connection holds a dozen of them.
///
/// The one value it cannot hold is `MAX` itself: [`OptNanos::set`] panics
/// on it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OptNanos<T>(u64, PhantomData<T>);

impl<T: Nanos> OptNanos<T> {
    /// None.
    pub const NONE: Self = OptNanos(u64::MAX, PhantomData);

    /// The value, if any.
    #[inline]
    pub fn get(self) -> Option<T> {
        self.is_some().then(|| T::of_nanos(self.0))
    }

    /// Hold `value`.
    ///
    /// # Panics
    /// If `value` is `MAX` nanoseconds, which stands for none.
    #[inline]
    pub fn set(&mut self, value: T) {
        let nanos = value.to_nanos();
        assert!(nanos != u64::MAX, "OptNanos cannot hold MAX");
        self.0 = nanos;
    }

    /// Take the value out, leaving none.
    #[inline]
    pub fn take(&mut self) -> Option<T> {
        let value = self.get();
        self.0 = u64::MAX;
        value
    }

    /// Whether a value is held.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != u64::MAX
    }

    /// Whether no value is held.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u64::MAX
    }
}

impl<T: Nanos> Default for OptNanos<T> {
    fn default() -> Self {
        Self::NONE
    }
}

impl<T: Nanos> From<Option<T>> for OptNanos<T> {
    #[inline]
    fn from(value: Option<T>) -> Self {
        let mut o = Self::NONE;
        if let Some(v) = value {
            o.set(v);
        }
        o
    }
}

impl<T: Nanos + fmt::Debug> fmt::Debug for OptNanos<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(60).as_secs_f64(), 0.060);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1000.0);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), NANOS_PER_SEC / 2);
        assert_eq!(SimTime::from_secs_f64(1e-9).as_nanos(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(5);
        assert_eq!(t + d, SimTime::from_millis(15));
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d, SimTime::from_millis(5));
        assert_eq!(d * 4, SimDuration::from_millis(20));
        assert_eq!(d / 5, SimDuration::from_millis(1));
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, SimTime::from_millis(15));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn serialization_delay_exact() {
        // 1500 bytes at 100 Mbit/s = 120 microseconds.
        let d = SimDuration::for_bytes_at_rate(1500, 100_000_000);
        assert_eq!(d, SimDuration::from_micros(120));
        // 40 bytes at 1 Gbit/s = 320 ns.
        let d = SimDuration::for_bytes_at_rate(40, 1_000_000_000);
        assert_eq!(d, SimDuration::from_nanos(320));
    }

    #[test]
    fn serialization_delay_rounds_up() {
        // 1 byte at 3 bit/ns-ish rates must not round to a faster-than-rate time.
        let d = SimDuration::for_bytes_at_rate(1, 3_000_000_000);
        // 8 bits / 3 Gbit/s = 2.666.. ns -> must become 3.
        assert_eq!(d.as_nanos(), 3);
    }

    proptest! {
        /// The 64-bit fast path and the 128-bit form are one function: on
        /// packet sizes, around the byte count where the 64-bit product
        /// overflows, on anything at all, down to rate 1.
        #[test]
        fn serialization_delay_matches_the_wide_form(
            bytes in prop_oneof![
                0u64..100_000,
                (u64::MAX / (8 * NANOS_PER_SEC)).saturating_sub(1_000)
                    ..u64::MAX / (8 * NANOS_PER_SEC) + 1_000,
                any::<u64>(),
            ],
            rate in prop_oneof![
                1u64..4,
                1_000u64..100_000_000_000,
                any::<u64>().prop_map(|r| r.max(1)),
            ],
        ) {
            let wide = (bytes as u128 * 8 * NANOS_PER_SEC as u128).div_ceil(rate as u128);
            prop_assert_eq!(
                SimDuration::for_bytes_at_rate(bytes, rate).as_nanos(),
                u64::try_from(wide).unwrap_or(u64::MAX)
            );
        }
    }

    #[test]
    fn opt_nanos_is_eight_bytes() {
        assert_eq!(core::mem::size_of::<OptNanos<SimTime>>(), 8);
        assert_eq!(core::mem::size_of::<OptNanos<SimDuration>>(), 8);
        assert_eq!(core::mem::size_of::<Option<SimTime>>(), 16);
    }

    proptest! {
        /// Every value below `MAX` reads back as itself, as a time and as a
        /// duration; `take` hands it out once and leaves none.
        #[test]
        fn opt_nanos_round_trips_every_value_below_max(
            nanos in prop_oneof![0u64..1_000, 0..u64::MAX, u64::MAX - 1_000..u64::MAX],
        ) {
            let mut t = OptNanos::<SimTime>::NONE;
            prop_assert_eq!(t.get(), None);
            t.set(SimTime::from_nanos(nanos));
            prop_assert_eq!(t.get(), Some(SimTime::from_nanos(nanos)));
            prop_assert_eq!(t, Some(SimTime::from_nanos(nanos)).into());
            prop_assert_eq!(t.take(), Some(SimTime::from_nanos(nanos)));
            prop_assert!(t.is_none());
            prop_assert_eq!(t.take(), None);
            let d = OptNanos::from(Some(SimDuration::from_nanos(nanos)));
            prop_assert_eq!(d.get(), Some(SimDuration::from_nanos(nanos)));
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold MAX")]
    fn opt_nanos_refuses_max_time() {
        let mut t = OptNanos::NONE;
        t.set(SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "cannot hold MAX")]
    fn opt_nanos_refuses_max_duration() {
        let _ = OptNanos::from(Some(SimDuration::MAX));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000");
        assert_eq!(format!("{:?}", SimDuration::from_millis(2)), "0.002000s");
    }
}
