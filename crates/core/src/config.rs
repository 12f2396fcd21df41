//! Protocol configuration.
//!
//! All parameters named in the paper (§5.1 "Experimental Setting") are
//! exposed here with the paper's values as defaults:
//!
//! * active view size = 5 (`fanout + 1` with fanout 4)
//! * passive view size = 30
//! * Active Random Walk Length (ARWL) = 6
//! * Passive Random Walk Length (PRWL) = 3
//! * shuffle sends `ka = 3` active and `kp = 4` passive identifiers
//!   (plus the sender's own identifier, for a total of 8)
//! * the shuffle walk starts with TTL 6, ARWL's paper value (a constant,
//!   not tied to [`Config::arwl`])

use std::fmt;

/// Initial TTL of the shuffle random walk. The paper propagates shuffles
/// "just like FORWARDJOIN requests", so this is ARWL's paper value.
pub(crate) const SHUFFLE_TTL: u8 = 6;

/// Admission damping (overlay defense): once a peer is admitted into the
/// active view via `JOIN` or a high-priority `NEIGHBOR`, further such
/// admissions of the *same* identifier are rejected for this many
/// membership cycles. Damps the rapid re-`JOIN` / re-`NEIGHBOR` churn an
/// eclipse attacker uses to re-roll random evictions; first-time
/// admissions are never affected.
pub const ADMISSION_COOLDOWN: u64 = 50;

/// Per-cycle budget of *eviction-causing* high-priority `NEIGHBOR`
/// admissions (overlay defense). Once it is spent, further high-priority
/// requests that would evict an active member are rejected until the next
/// shuffle tick. Requests that fill a free slot or re-confirm an existing
/// member are exempt.
pub const NEIGHBOR_EVICT_BUDGET: usize = 1;

/// Bounded active-view tenure (overlay defense): at each shuffle tick, if
/// the longest-tenured active member has been in the view for at least
/// this many cycles *and* a passive-view replacement exists, it is swapped
/// out (disconnected into the passive view). Continuous rotation caps how
/// long a captured slot stays captured.
pub const MAX_ACTIVE_TENURE: u64 = 5;

/// Churn-triggered shuffle boost (overlay defense): when the previous
/// cycle saw active-view churn (evictions or transport failures), the
/// shuffle tick sends this many *extra* shuffle requests, diluting
/// attacker-biased passive views faster exactly when the view is under
/// pressure.
pub const CHURN_SHUFFLE_BOOST: usize = 1;

/// Errors produced when validating a [`Config`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The active view must hold at least one peer.
    ZeroActiveView,
    /// The passive view must hold at least one peer.
    ZeroPassiveView,
    /// PRWL must not exceed ARWL, otherwise the passive-view insertion point
    /// of a `FORWARDJOIN` walk is never reached.
    PrwlExceedsArwl {
        /// Configured active random walk length.
        arwl: u8,
        /// Configured passive random walk length.
        prwl: u8,
    },
    /// A shuffle must exchange at least one identifier.
    EmptyShuffle,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroActiveView => write!(f, "active view capacity must be at least 1"),
            ConfigError::ZeroPassiveView => write!(f, "passive view capacity must be at least 1"),
            ConfigError::PrwlExceedsArwl { arwl, prwl } => write!(
                f,
                "passive random walk length ({prwl}) exceeds active random walk length ({arwl})"
            ),
            ConfigError::EmptyShuffle => {
                write!(f, "shuffle must exchange at least one identifier (ka + kp >= 1)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a [`HyParView`](crate::HyParView) instance.
///
/// Construct with [`Config::default`] for the paper's parameters, or use the
/// builder-style setters for custom deployments. Validation happens in
/// [`Config::validate`], which the protocol constructor calls.
///
/// # Examples
///
/// ```
/// use hyparview_core::Config;
///
/// let config = Config::default()
///     .with_active_capacity(5)
///     .with_passive_capacity(30);
/// assert!(config.validate().is_ok());
/// assert_eq!(config.fanout(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Maximum number of peers in the active view (paper: `fanout + 1` = 5).
    pub active_capacity: usize,
    /// Maximum number of peers in the passive view (paper: 30).
    pub passive_capacity: usize,
    /// Active Random Walk Length: initial TTL of `FORWARDJOIN` walks (paper: 6).
    pub arwl: u8,
    /// Passive Random Walk Length: TTL at which a `FORWARDJOIN` walk inserts
    /// the joiner into the passive view (paper: 3).
    pub prwl: u8,
    /// Number of active-view identifiers placed in a shuffle message (paper: 3).
    pub shuffle_active: usize,
    /// Number of passive-view identifiers placed in a shuffle message (paper: 4).
    pub shuffle_passive: usize,
    /// Turns on the four overlay defenses (not in the paper), each at its
    /// constant below: admission damping ([`ADMISSION_COOLDOWN`]), the
    /// per-cycle eviction budget ([`NEIGHBOR_EVICT_BUDGET`]), bounded
    /// active-view tenure ([`MAX_ACTIVE_TENURE`]) and the churn-triggered
    /// shuffle boost ([`CHURN_SHUFFLE_BOOST`]). Off by default: the paper's
    /// protocol.
    pub defenses: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config::paper()
    }
}

impl Config {
    /// Returns the paper's configuration (same as [`Config::default`]).
    pub const fn paper() -> Self {
        Config {
            active_capacity: 5,
            passive_capacity: 30,
            arwl: 6,
            prwl: 3,
            shuffle_active: 3,
            shuffle_passive: 4,
            defenses: false,
        }
    }

    /// Sets the active view capacity.
    pub fn with_active_capacity(mut self, capacity: usize) -> Self {
        self.active_capacity = capacity;
        self
    }

    /// Sets the passive view capacity.
    pub fn with_passive_capacity(mut self, capacity: usize) -> Self {
        self.passive_capacity = capacity;
        self
    }

    /// Sets the active random walk length (`FORWARDJOIN` TTL).
    pub fn with_arwl(mut self, arwl: u8) -> Self {
        self.arwl = arwl;
        self
    }

    /// Sets the passive random walk length.
    pub fn with_prwl(mut self, prwl: u8) -> Self {
        self.prwl = prwl;
        self
    }

    /// Sets how many active-view identifiers a shuffle carries (`ka`).
    pub fn with_shuffle_active(mut self, ka: usize) -> Self {
        self.shuffle_active = ka;
        self
    }

    /// Sets how many passive-view identifiers a shuffle carries (`kp`).
    pub fn with_shuffle_passive(mut self, kp: usize) -> Self {
        self.shuffle_passive = kp;
        self
    }

    /// The paper's configuration with every overlay defense on.
    pub const fn hardened() -> Self {
        Config { defenses: true, ..Config::paper() }
    }

    /// The gossip fanout implied by this configuration: the active view holds
    /// `fanout + 1` peers because links are symmetric and a node never relays
    /// a message back to its sender (§4.1).
    pub fn fanout(&self) -> usize {
        self.active_capacity.saturating_sub(1).max(1)
    }

    /// Total number of identifiers carried by a shuffle message, including
    /// the initiator's own identifier.
    pub fn shuffle_payload_len(&self) -> usize {
        self.shuffle_active + self.shuffle_passive + 1
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a view capacity is zero, PRWL exceeds
    /// ARWL, or the shuffle payload would be empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.active_capacity == 0 {
            return Err(ConfigError::ZeroActiveView);
        }
        if self.passive_capacity == 0 {
            return Err(ConfigError::ZeroPassiveView);
        }
        if self.prwl > self.arwl {
            return Err(ConfigError::PrwlExceedsArwl { arwl: self.arwl, prwl: self.prwl });
        }
        if self.shuffle_active + self.shuffle_passive == 0 {
            return Err(ConfigError::EmptyShuffle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = Config::default();
        assert_eq!(c.active_capacity, 5);
        assert_eq!(c.passive_capacity, 30);
        assert_eq!(c.arwl, 6);
        assert_eq!(c.prwl, 3);
        assert_eq!(c.shuffle_active, 3);
        assert_eq!(c.shuffle_passive, 4);
        assert_eq!(c.shuffle_payload_len(), 8);
        assert_eq!(c.fanout(), 4);
        assert_eq!(SHUFFLE_TTL, 6);
        c.validate().expect("paper config must validate");
    }

    #[test]
    fn builder_setters_apply() {
        let c = Config::default()
            .with_active_capacity(7)
            .with_passive_capacity(42)
            .with_arwl(8)
            .with_prwl(4)
            .with_shuffle_active(2)
            .with_shuffle_passive(5);
        assert_eq!(c.active_capacity, 7);
        assert_eq!(c.passive_capacity, 42);
        assert_eq!(c.arwl, 8);
        assert_eq!(c.prwl, 4);
        assert_eq!(c.shuffle_active, 2);
        assert_eq!(c.shuffle_passive, 5);
    }

    #[test]
    fn defenses_default_off_and_builders_apply() {
        assert!(!Config::default().defenses);
        assert!(Config::hardened().defenses);
        assert_eq!(Config::hardened(), Config { defenses: true, ..Config::default() });
        assert_eq!(
            (ADMISSION_COOLDOWN, NEIGHBOR_EVICT_BUDGET, MAX_ACTIVE_TENURE, CHURN_SHUFFLE_BOOST),
            (50, 1, 5, 1)
        );
    }

    #[test]
    fn hardened_enables_every_defense() {
        let c = Config::hardened();
        assert!(c.defenses);
        // Defenses never change the paper's view geometry.
        assert_eq!(c.active_capacity, Config::default().active_capacity);
        assert_eq!(c.passive_capacity, Config::default().passive_capacity);
        c.validate().expect("hardened config must validate");
    }

    #[test]
    fn zero_active_view_rejected() {
        let err = Config::default().with_active_capacity(0).validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroActiveView);
    }

    #[test]
    fn zero_passive_view_rejected() {
        let err = Config::default().with_passive_capacity(0).validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroPassiveView);
    }

    #[test]
    fn prwl_above_arwl_rejected() {
        let err = Config::default().with_arwl(2).with_prwl(3).validate().unwrap_err();
        assert_eq!(err, ConfigError::PrwlExceedsArwl { arwl: 2, prwl: 3 });
    }

    #[test]
    fn empty_shuffle_rejected() {
        let err = Config::default()
            .with_shuffle_active(0)
            .with_shuffle_passive(0)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyShuffle);
    }

    #[test]
    fn config_error_displays_are_nonempty() {
        for err in [
            ConfigError::ZeroActiveView,
            ConfigError::ZeroPassiveView,
            ConfigError::PrwlExceedsArwl { arwl: 1, prwl: 2 },
            ConfigError::EmptyShuffle,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
