//! The failpoint registry: every [`point!`](crate::point!),
//! [`should_fail!`](crate::should_fail!), and [`blocked!`](crate::blocked!)
//! site self-registers its name the first time it is reached, and
//! [`all_points`] lists what has registered — so exploration sweeps and
//! coverage tests can assert that the yield points they rely on actually
//! exist and fire. A failpoint that is renamed, deleted, or compiled out
//! shows up as a missing registry entry instead of silently enumerating
//! fewer schedules.
//!
//! Registration is by-reach, not by-link: a site registers the first time
//! control passes it in a `chaos`-enabled build. With the `chaos` cargo
//! feature off the macros compile to the same no-op calls as the plain
//! functions and the registry stays empty.

/// What a registered failpoint site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PointKind {
    /// A [`point!`](crate::point!) site: a plain schedule-perturbation /
    /// cooperative-yield point.
    Yield,
    /// A [`should_fail!`](crate::should_fail!) site: may force the calling
    /// operation to restart (never forced under a schedule plan).
    Fail,
    /// A [`blocked!`](crate::blocked!) site: the calling thread cannot make
    /// progress until another thread acts (spin-lock waits, grace-period
    /// waits). Under a schedule plan the thread is descheduled until a
    /// [`wake_hint`](crate::wake_hint) arrives.
    Block,
}

/// One `point!`/`should_fail!`/`blocked!` call site's static identity.
///
/// The macros expand to a `static PointSite` per call site; the first
/// firing registers the name into the global registry (see [`all_points`]).
pub struct PointSite {
    name: &'static str,
    kind: PointKind,
    #[cfg(feature = "chaos")]
    registered: core::sync::atomic::AtomicBool,
}

impl PointSite {
    /// Creates a site (used by the failpoint macros; one static per site).
    #[must_use]
    pub const fn new(name: &'static str, kind: PointKind) -> Self {
        Self {
            name,
            kind,
            #[cfg(feature = "chaos")]
            registered: core::sync::atomic::AtomicBool::new(false),
        }
    }

    /// The site's failpoint name (`component/operation/site`).
    #[must_use]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// The site's kind.
    #[must_use]
    pub const fn kind(&self) -> PointKind {
        self.kind
    }
}

impl core::fmt::Debug for PointSite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PointSite")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

/// A registry entry: a failpoint site that has been reached at least once
/// in this process (in a `chaos`-enabled build).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RegisteredPoint {
    /// The failpoint name (`component/operation/site`).
    pub name: &'static str,
    /// What the site does when it fires.
    pub kind: PointKind,
}

#[cfg(feature = "chaos")]
mod imp {
    use super::{PointKind, PointSite, RegisteredPoint};
    use core::sync::atomic::Ordering;
    use std::collections::BTreeMap;
    use std::sync::{Mutex, PoisonError};

    static REGISTRY: Mutex<BTreeMap<&'static str, PointKind>> = Mutex::new(BTreeMap::new());

    fn register(site: &'static PointSite) {
        // Relaxed is fine: a racy duplicate insert is idempotent, and the
        // flag only short-circuits the common already-registered case.
        if !site.registered.load(Ordering::Relaxed) {
            REGISTRY
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(site.name(), site.kind());
            site.registered.store(true, Ordering::Relaxed);
        }
    }

    /// Every failpoint site reached so far, sorted by name.
    #[must_use]
    pub fn all_points() -> Vec<RegisteredPoint> {
        REGISTRY
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&name, &kind)| RegisteredPoint { name, kind })
            .collect()
    }

    /// Fires a registered [`point!`](crate::point!) site.
    #[inline]
    pub fn fire_point(site: &'static PointSite) {
        register(site);
        crate::point(site.name());
    }

    /// Fires a registered [`should_fail!`](crate::should_fail!) site.
    #[inline]
    #[must_use]
    pub fn fire_should_fail(site: &'static PointSite) -> bool {
        register(site);
        crate::should_fail(site.name())
    }

    /// Fires a registered [`blocked!`](crate::blocked!) site: under an
    /// active schedule the calling thread is descheduled until a
    /// [`wake_hint`](crate::wake_hint); otherwise it degrades to a plain
    /// chaos roll and the caller's own spin loop provides the waiting.
    #[inline]
    pub fn fire_blocked(site: &'static PointSite) {
        register(site);
        if !crate::sched::yield_point(site.name(), true) {
            crate::point(site.name());
        }
    }
}

#[cfg(not(feature = "chaos"))]
mod imp {
    use super::{PointSite, RegisteredPoint};

    /// Always empty in this build (failpoints are compiled out).
    #[inline]
    #[must_use]
    pub fn all_points() -> Vec<RegisteredPoint> {
        Vec::new()
    }

    /// No-op in this build.
    #[inline(always)]
    pub fn fire_point(site: &'static PointSite) {
        let _ = site;
    }

    /// Always `false` in this build.
    #[inline(always)]
    #[must_use]
    pub fn fire_should_fail(site: &'static PointSite) -> bool {
        let _ = site;
        false
    }

    /// No-op in this build.
    #[inline(always)]
    pub fn fire_blocked(site: &'static PointSite) {
        let _ = site;
    }
}

pub use imp::{all_points, fire_blocked, fire_point, fire_should_fail};

/// A named schedule-perturbation failpoint that self-registers into the
/// failpoint registry (see [`all_points`]) on first reach.
///
/// Equivalent to [`point`](fn@crate::point) plus registration; instrumented
/// crates should prefer this macro so coverage checks see their sites.
#[macro_export]
macro_rules! point {
    ($name:literal) => {{
        static __CITRUS_CHAOS_SITE: $crate::PointSite =
            $crate::PointSite::new($name, $crate::PointKind::Yield);
        $crate::fire_point(&__CITRUS_CHAOS_SITE)
    }};
}

/// A named forced-restart failpoint that self-registers into the failpoint
/// registry on first reach. Evaluates to `bool` like
/// [`should_fail`](fn@crate::should_fail); under an active
/// [`SchedulePlan`](crate::SchedulePlan) (see
/// [`run_schedule`](crate::run_schedule)) it acts as a cooperative yield
/// point and always returns `false`.
#[macro_export]
macro_rules! should_fail {
    ($name:literal) => {{
        static __CITRUS_CHAOS_SITE: $crate::PointSite =
            $crate::PointSite::new($name, $crate::PointKind::Fail);
        $crate::fire_should_fail(&__CITRUS_CHAOS_SITE)
    }};
}

/// A named *blocking* yield point, for spin-wait loops whose progress
/// depends on another thread (lock acquisition, grace-period waits,
/// drain loops). Place it inside the wait loop, before the backoff:
///
/// ```ignore
/// while lock_is_held() {
///     citrus_chaos::blocked!("component/operation/wait");
///     backoff.snooze();
/// }
/// ```
///
/// Under an active schedule the calling thread is descheduled until some
/// thread calls [`wake_hint`](crate::wake_hint) (placed at every release
/// site); without a schedule it degrades to a plain chaos roll.
#[macro_export]
macro_rules! blocked {
    ($name:literal) => {{
        static __CITRUS_CHAOS_SITE: $crate::PointSite =
            $crate::PointSite::new($name, $crate::PointKind::Block);
        $crate::fire_blocked(&__CITRUS_CHAOS_SITE)
    }};
}
