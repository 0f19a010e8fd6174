//! Typed statistics: plain-field counters whose reports are differences.
//!
//! The paper decomposes execution time into three components (hardware,
//! dual-port RAM management, IMU management); the rest of the workspace
//! accumulates those — and auxiliary event counts such as page faults and
//! TLB updates — in structs declared with [`stats!`](crate::stats!). A
//! component writes a field directly (`counts.fault += 1`), and a report
//! over an interval is one subtraction of two snapshots
//! (`after - before`).

/// Declares a statistics struct: one `pub` field of type `$ty` per name.
///
/// The struct derives `Debug`, `Clone`, `Default`, `PartialEq` and `Eq`
/// (not `Copy`: snapshots are taken with an explicit `clone()`), and
/// implements field-by-field
///
/// * `AddAssign`, with `saturating_add` so time fields saturate rather
///   than overflow;
/// * `Sub`, the growth between two snapshots of a monotonic struct;
/// * `get(&str)`, a by-name read built from the field names for readers
///   that select a statistic by string. An unknown name reads zero.
///
/// # Examples
///
/// ```
/// use vcop_sim::stats;
/// use vcop_sim::time::SimTime;
///
/// stats! {
///     /// Service time per component.
///     pub struct Times: SimTime {
///         /// Data movement.
///         sw_dp,
///         /// Translation upkeep.
///         sw_imu,
///     }
/// }
///
/// let mut t = Times::default();
/// t.sw_dp += SimTime::from_us(10);
/// let before = t.clone();
/// t.sw_dp += SimTime::from_us(5);
/// assert_eq!((t.clone() - before).sw_dp, SimTime::from_us(5));
/// assert_eq!(t.get("sw_dp"), SimTime::from_us(15));
/// assert_eq!(t.get("never"), SimTime::ZERO);
/// ```
#[macro_export]
macro_rules! stats {
    ($(#[$meta:meta])* $vis:vis struct $name:ident: $ty:ty {
        $($(#[$doc:meta])* $field:ident,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl ::core::ops::AddAssign for $name {
            fn add_assign(&mut self, o: $name) {
                $(self.$field = self.$field.saturating_add(o.$field);)*
            }
        }

        impl ::core::ops::Sub for $name {
            type Output = $name;
            fn sub(self, o: $name) -> $name {
                $name {
                    $($field: self.$field - o.$field,)*
                }
            }
        }

        impl $name {
            /// The field called `name` (zero for an unknown name): the
            /// by-name view for readers that select statistics by
            /// string.
            pub fn get(&self, name: &str) -> $ty {
                match name {
                    $(stringify!($field) => self.$field,)*
                    _ => <$ty>::default(),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::time::SimTime;

    stats! {
        struct Counts: u64 {
            x,
            y,
        }
    }

    stats! {
        struct Buckets: SimTime {
            hw,
            sw,
        }
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counts::default();
        a.x += 1;
        a.y += 5;
        a += Counts { x: 9, y: 0 };
        assert_eq!(a, Counts { x: 10, y: 5 });
        assert_eq!((a.get("x"), a.get("y"), a.get("z")), (10, 5, 0));
        assert_eq!(a.clone() - Counts { x: 4, y: 5 }, Counts { x: 6, y: 0 });
    }

    #[test]
    fn buckets_merge_saturating() {
        let mut t = Buckets {
            hw: SimTime::from_us(3),
            sw: SimTime::from_ps(u64::MAX - 1),
        };
        t += Buckets {
            hw: SimTime::from_us(1),
            sw: SimTime::from_us(1),
        };
        assert_eq!(t.get("hw"), SimTime::from_us(4));
        assert_eq!(t.get("sw"), SimTime::from_ps(u64::MAX), "saturates");
        assert_eq!(t.get("none"), SimTime::ZERO);
    }
}
