//! Physical-world scenario description for one unlock attempt.

use rand::Rng;

use wearlock_acoustics::channel::{AcousticLink, PathKind};
use wearlock_acoustics::hardware::SpeakerModel;
use wearlock_acoustics::noise::Location;
use wearlock_dsp::units::Meters;
use wearlock_sensors::activity::{synthesize_different_pair, synthesize_pair};
use wearlock_sensors::{AccelTrace, Activity};

use crate::config::WearLockConfig;
use crate::error::WearLockError;

/// How the two devices are moving relative to each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MotionScenario {
    /// Phone and watch ride the same body doing `activity`.
    CoLocated {
        /// The shared activity.
        activity: Activity,
    },
    /// Phone and watch are on different bodies (e.g. an attacker holds
    /// the phone).
    Different {
        /// The phone carrier's activity.
        phone: Activity,
        /// The watch wearer's activity.
        watch: Activity,
    },
}

/// The physical setting of an unlock attempt.
///
/// # Examples
///
/// ```
/// use wearlock::environment::Environment;
/// use wearlock_acoustics::noise::Location;
/// use wearlock_dsp::units::Meters;
///
/// let env = Environment::builder()
///     .location(Location::Cafe)
///     .distance(Meters(0.4))
///     .build();
/// assert_eq!(env.location, Location::Cafe);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Environment {
    /// Ambient noise environment.
    pub location: Location,
    /// Phone-speaker to watch-microphone distance.
    pub distance: Meters,
    /// Acoustic path geometry.
    pub path: PathKind,
    /// Whether the Bluetooth/WiFi link is in range (the first filter).
    pub wireless_in_range: bool,
    /// Motion of the two devices.
    pub motion: MotionScenario,
    /// Length of the sensor traces recorded in phase 1 (samples at
    /// 50 Hz; paper uses 50–150).
    pub sensor_samples: usize,
}

impl Environment {
    /// Starts building an environment from benign defaults (office,
    /// 0.3 m, LOS, wireless in range, sitting together).
    pub fn builder() -> EnvironmentBuilder {
        EnvironmentBuilder::default()
    }

    /// Whether phone and watch are on the same body.
    pub fn co_located(&self) -> bool {
        matches!(self.motion, MotionScenario::CoLocated { .. })
    }

    /// The simulated air of this setting: the phone's speaker, the
    /// distance, path and ambient noise, and `config`'s receiving
    /// microphone.
    pub(crate) fn acoustic_link(
        &self,
        config: &WearLockConfig,
    ) -> Result<AcousticLink, WearLockError> {
        Ok(AcousticLink::builder()
            .distance(self.distance)
            .noise(self.location.noise_model())
            .path(self.path)
            .speaker(SpeakerModel::smartphone())
            .microphone(config.receiver_microphone())
            .build()?)
    }

    /// One attempt's (phone, watch) accelerometer traces.
    pub(crate) fn sensor_traces<R: Rng + ?Sized>(&self, rng: &mut R) -> (AccelTrace, AccelTrace) {
        match self.motion {
            MotionScenario::CoLocated { activity } => {
                synthesize_pair(activity, self.sensor_samples, rng)
            }
            MotionScenario::Different { phone, watch } => {
                synthesize_different_pair(phone, watch, self.sensor_samples, rng)
            }
        }
    }
}

impl Default for Environment {
    fn default() -> Self {
        Environment::builder().build()
    }
}

/// Builder for [`Environment`].
#[derive(Debug, Clone)]
pub struct EnvironmentBuilder {
    location: Location,
    distance: Meters,
    path: PathKind,
    wireless_in_range: bool,
    motion: MotionScenario,
    sensor_samples: usize,
}

impl Default for EnvironmentBuilder {
    fn default() -> Self {
        EnvironmentBuilder {
            location: Location::Office,
            distance: Meters(0.3),
            path: PathKind::LineOfSight,
            wireless_in_range: true,
            motion: MotionScenario::CoLocated {
                activity: Activity::Sitting,
            },
            sensor_samples: 120,
        }
    }
}

impl EnvironmentBuilder {
    /// Sets the noise environment (default office).
    pub fn location(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// Sets the device distance (default 0.3 m).
    pub fn distance(mut self, distance: Meters) -> Self {
        self.distance = distance;
        self
    }

    /// Sets the acoustic path (default line of sight).
    pub fn path(mut self, path: PathKind) -> Self {
        self.path = path;
        self
    }

    /// Sets whether the wireless link is present (default true).
    pub fn wireless_in_range(mut self, in_range: bool) -> Self {
        self.wireless_in_range = in_range;
        self
    }

    /// Sets the motion scenario (default co-located sitting).
    pub fn motion(mut self, motion: MotionScenario) -> Self {
        self.motion = motion;
        self
    }

    /// Sets the sensor trace length (default 120 samples).
    pub fn sensor_samples(mut self, samples: usize) -> Self {
        self.sensor_samples = samples.max(10);
        self
    }

    /// Builds the environment.
    pub fn build(self) -> Environment {
        Environment {
            location: self.location,
            distance: self.distance,
            path: self.path,
            wireless_in_range: self.wireless_in_range,
            motion: self.motion,
            sensor_samples: self.sensor_samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_benign() {
        let env = Environment::default();
        assert!(env.wireless_in_range);
        assert!(env.co_located());
        assert_eq!(env.distance, Meters(0.3));
        assert_eq!(env.sensor_samples, 120);
    }

    #[test]
    fn builder_sets_everything() {
        let env = Environment::builder()
            .location(Location::GroceryStore)
            .distance(Meters(2.0))
            .path(PathKind::BodyBlocked { block_db: 20.0 })
            .wireless_in_range(false)
            .motion(MotionScenario::Different {
                phone: Activity::Walking,
                watch: Activity::Running,
            })
            .sensor_samples(80)
            .build();
        assert!(!env.wireless_in_range);
        assert!(!env.co_located());
        assert_eq!(env.sensor_samples, 80);
        assert_eq!(env.location, Location::GroceryStore);
    }

    #[test]
    fn sensor_samples_floor() {
        let env = Environment::builder().sensor_samples(1).build();
        assert_eq!(env.sensor_samples, 10);
    }
}
