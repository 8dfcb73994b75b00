//! MuJoCo-like planar locomotion environments: Hopper, Walker2d, Humanoid.
//!
//! Each figure is an articulated chain of segment bodies in the
//! [`crate::physics2d`] world. Observations and rewards follow the Gym
//! conventions the paper trains on: forward velocity plus an alive bonus
//! minus a quadratic control cost, with termination on unhealthy torso
//! states. Dimensions match Gym for Hopper (11) and Walker2d (17); the
//! planar Humanoid is a reduced 21-D variant (documented in DESIGN.md §2).

use rand::Rng;

use crate::env::{env_rng, Action, ActionSpace, Env, EnvConfig, EnvRng, Step};
use crate::physics2d::{Body, BodyId, JointId, RevoluteJoint, Vec2, World, WorldConfig};

const UP: f32 = std::f32::consts::FRAC_PI_2;
/// Control timestep = SUBSTEPS * SUB_DT.
const SUB_DT: f32 = 0.008;
const SUBSTEPS: usize = 4;
/// Observation velocity clip, as in Gym.
const VEL_CLIP: f32 = 10.0;

/// A planar articulated figure plus its actuation metadata.
struct Figure {
    world: World,
    torso: BodyId,
    joints: Vec<JointId>,
    gears: Vec<f32>,
}

impl Figure {
    fn observe(&self) -> Vec<f32> {
        let t = self.world.body(self.torso);
        let mut obs = Vec::with_capacity(3 + 2 * self.joints.len() + 3);
        obs.push(t.pos.y);
        obs.push(t.angle - UP);
        for &j in &self.joints {
            obs.push(self.world.joint_angle(j));
        }
        obs.push(t.vel.x.clamp(-VEL_CLIP, VEL_CLIP));
        obs.push(t.vel.y.clamp(-VEL_CLIP, VEL_CLIP));
        obs.push(t.angvel.clamp(-VEL_CLIP, VEL_CLIP));
        for &j in &self.joints {
            obs.push(self.world.joint_angvel(j).clamp(-VEL_CLIP, VEL_CLIP));
        }
        obs
    }

    fn apply_and_step(&mut self, action: &[f32]) {
        self.apply_and_step_with(action, World::step);
    }

    /// One control step of `SUBSTEPS` physics substeps, each advanced by
    /// `step` (the tests swap in [`World::step_reference`]).
    fn apply_and_step_with(&mut self, action: &[f32], step: fn(&mut World, f32)) {
        for _ in 0..SUBSTEPS {
            for (i, (&j, &gear)) in self.joints.iter().zip(self.gears.iter()).enumerate() {
                let a = action.get(i).copied().unwrap_or(0.0).clamp(-1.0, 1.0);
                self.world.set_motor(j, a * gear);
            }
            step(&mut self.world, SUB_DT);
        }
    }

    fn obs_dim(&self) -> usize {
        // [y, pitch] + joint angles + [vx, vy, angvel] + joint velocities.
        5 + 2 * self.joints.len()
    }
}

/// Builds one leg (thigh, shin, optional foot) hanging from `parent` at
/// world anchor height `hip_y`, returning the new joints in top-down order.
#[expect(clippy::too_many_arguments)]
fn build_leg(
    w: &mut World,
    parent: BodyId,
    parent_local: Vec2,
    hip_y: f32,
    thigh_len: f32,
    shin_len: f32,
    foot_len: Option<f32>,
    x: f32,
    masses: (f32, f32, f32),
) -> (Vec<JointId>, Vec<BodyId>) {
    let mut joints = Vec::new();
    let mut bodies = Vec::new();
    let thigh = w.add_body(Body::segment(
        Vec2::new(x, hip_y - thigh_len * 0.5),
        UP,
        thigh_len,
        masses.0,
    ));
    bodies.push(thigh);
    joints.push(
        w.add_joint(
            RevoluteJoint::new(parent, thigh, parent_local, Vec2::new(thigh_len * 0.5, 0.0))
                .with_limits(-1.2, 1.2),
        ),
    );
    let knee_y = hip_y - thigh_len;
    let shin = w.add_body(Body::segment(
        Vec2::new(x, knee_y - shin_len * 0.5),
        UP,
        shin_len,
        masses.1,
    ));
    bodies.push(shin);
    joints.push(
        w.add_joint(
            RevoluteJoint::new(
                thigh,
                shin,
                Vec2::new(-thigh_len * 0.5, 0.0),
                Vec2::new(shin_len * 0.5, 0.0),
            )
            .with_limits(-2.2, 0.1),
        ),
    );
    if let Some(foot_len) = foot_len {
        let ankle_y = knee_y - shin_len;
        // Foot is horizontal, extending forward from the ankle.
        let foot = w.add_body(Body::segment(
            Vec2::new(x + foot_len * 0.25, ankle_y - 0.04),
            0.0,
            foot_len,
            masses.2,
        ));
        bodies.push(foot);
        joints.push(
            w.add_joint(
                RevoluteJoint::new(
                    shin,
                    foot,
                    Vec2::new(-shin_len * 0.5, 0.0),
                    Vec2::new(-foot_len * 0.25, 0.04),
                )
                .with_ref_angle(-UP)
                .with_limits(-0.8, 0.8),
            ),
        );
    }
    (joints, bodies)
}

fn perturb(figure: &mut Figure, rng: &mut EnvRng, scale: f32) {
    let n = figure.world.bodies.len();
    for i in 0..n {
        let b = &mut figure.world.bodies[i];
        if b.inv_mass > 0.0 {
            b.angvel += rng.gen_range(-scale..scale);
            b.vel.x += rng.gen_range(-scale..scale);
        }
    }
}

// ---------------------------------------------------------------------------
// Hopper
// ---------------------------------------------------------------------------

/// Planar one-legged hopper (11-D observation, 3 torques), the workhorse
/// environment of the paper's characterisation and ablation figures.
pub struct Hopper {
    figure: Figure,
    cfg: EnvConfig,
    t: usize,
}

impl Hopper {
    /// Creates the environment (call [`Env::reset`] before stepping).
    pub fn new(cfg: EnvConfig) -> Self {
        Self {
            figure: Self::build(),
            cfg,
            t: 0,
        }
    }

    fn build() -> Figure {
        let mut w = World::new(WorldConfig::default());
        let torso_len = 0.4;
        let torso = w.add_body(Body::segment(
            Vec2::new(0.0, 1.05 + torso_len * 0.5),
            UP,
            torso_len,
            3.7,
        ));
        let (joints, _) = build_leg(
            &mut w,
            torso,
            Vec2::new(-torso_len * 0.5, 0.0),
            1.05,
            0.45,
            0.5,
            Some(0.39),
            0.0,
            (4.0, 2.7, 5.3),
        );
        Figure {
            world: w,
            torso,
            joints,
            gears: vec![55.0, 55.0, 35.0],
        }
    }

    fn healthy(&self) -> bool {
        let t = self.figure.world.body(self.figure.torso);
        t.pos.y > 0.8 && (t.angle - UP).abs() < 0.7 && !self.figure.world.is_unstable()
    }
}

impl Env for Hopper {
    fn name(&self) -> &'static str {
        "Hopper"
    }

    fn obs_shape(&self) -> Vec<usize> {
        vec![self.figure.obs_dim()]
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { dim: 3, bound: 1.0 }
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        self.figure = Self::build();
        let mut rng = env_rng(seed);
        perturb(&mut self.figure, &mut rng, 0.01);
        self.t = 0;
        self.figure.observe()
    }

    fn step(&mut self, action: &Action) -> Step {
        let x0 = self.figure.world.body(self.figure.torso).pos.x;
        self.figure.apply_and_step(action.continuous());
        self.t += 1;
        let x1 = self.figure.world.body(self.figure.torso).pos.x;
        let vx = (x1 - x0) / (SUB_DT * SUBSTEPS as f32);
        let healthy = self.healthy();
        let reward = vx + 1.0 - 1e-3 * action.sq_norm();
        let done = !healthy || self.t >= self.cfg.max_steps;
        Step {
            obs: self.figure.observe(),
            reward,
            done,
        }
    }

    fn max_steps(&self) -> usize {
        self.cfg.max_steps
    }
}

// ---------------------------------------------------------------------------
// Walker2d
// ---------------------------------------------------------------------------

/// Planar biped walker (17-D observation, 6 torques).
pub struct Walker2d {
    figure: Figure,
    cfg: EnvConfig,
    t: usize,
}

impl Walker2d {
    /// Creates the environment.
    pub fn new(cfg: EnvConfig) -> Self {
        Self {
            figure: Self::build(),
            cfg,
            t: 0,
        }
    }

    fn build() -> Figure {
        let mut w = World::new(WorldConfig::default());
        let torso_len = 0.4;
        let torso = w.add_body(Body::segment(
            Vec2::new(0.0, 1.05 + torso_len * 0.5),
            UP,
            torso_len,
            3.5,
        ));
        let mut joints = Vec::new();
        for dx in [0.0f32, 0.0] {
            let (leg_joints, _) = build_leg(
                &mut w,
                torso,
                Vec2::new(-torso_len * 0.5, 0.0),
                1.05,
                0.45,
                0.5,
                Some(0.3),
                dx,
                (4.0, 2.7, 3.0),
            );
            joints.extend(leg_joints);
        }
        Figure {
            world: w,
            torso,
            joints,
            gears: vec![55.0, 55.0, 35.0, 55.0, 55.0, 35.0],
        }
    }

    fn healthy(&self) -> bool {
        let t = self.figure.world.body(self.figure.torso);
        t.pos.y > 0.7 && (t.angle - UP).abs() < 1.0 && !self.figure.world.is_unstable()
    }
}

impl Env for Walker2d {
    fn name(&self) -> &'static str {
        "Walker2d"
    }

    fn obs_shape(&self) -> Vec<usize> {
        vec![self.figure.obs_dim()]
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { dim: 6, bound: 1.0 }
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        self.figure = Self::build();
        let mut rng = env_rng(seed);
        perturb(&mut self.figure, &mut rng, 0.01);
        self.t = 0;
        self.figure.observe()
    }

    fn step(&mut self, action: &Action) -> Step {
        let x0 = self.figure.world.body(self.figure.torso).pos.x;
        self.figure.apply_and_step(action.continuous());
        self.t += 1;
        let x1 = self.figure.world.body(self.figure.torso).pos.x;
        let vx = (x1 - x0) / (SUB_DT * SUBSTEPS as f32);
        let reward = vx + 1.0 - 1e-3 * action.sq_norm();
        let done = !self.healthy() || self.t >= self.cfg.max_steps;
        Step {
            obs: self.figure.observe(),
            reward,
            done,
        }
    }

    fn max_steps(&self) -> usize {
        self.cfg.max_steps
    }
}

// ---------------------------------------------------------------------------
// Humanoid
// ---------------------------------------------------------------------------

/// Planar humanoid with legs (hip/knee/ankle) and arms (shoulder), 21-D
/// observation and 8 torques — the heaviest continuous-control task here.
pub struct Humanoid {
    figure: Figure,
    cfg: EnvConfig,
    t: usize,
}

impl Humanoid {
    /// Creates the environment.
    pub fn new(cfg: EnvConfig) -> Self {
        Self {
            figure: Self::build(),
            cfg,
            t: 0,
        }
    }

    fn build() -> Figure {
        let mut w = World::new(WorldConfig::default());
        let torso_len = 0.6;
        let hip_y = 1.0;
        let torso = w.add_body(Body::segment(
            Vec2::new(0.0, hip_y + torso_len * 0.5),
            UP,
            torso_len,
            8.0,
        ));
        let mut joints = Vec::new();
        // Two legs with feet: hip, knee, ankle each.
        for dx in [0.0f32, 0.0] {
            let (leg_joints, _) = build_leg(
                &mut w,
                torso,
                Vec2::new(-torso_len * 0.5, 0.0),
                hip_y,
                0.4,
                0.4,
                Some(0.26),
                dx,
                (4.5, 3.0, 1.5),
            );
            joints.extend(leg_joints);
        }
        // Two arms hanging from the shoulders (no ground collision).
        for _ in 0..2 {
            let arm_len = 0.55;
            let shoulder_y = hip_y + torso_len - 0.05;
            let mut arm =
                Body::segment(Vec2::new(0.0, shoulder_y - arm_len * 0.5), UP, arm_len, 1.6);
            arm.collide_ground = false;
            let arm = w.add_body(arm);
            joints.push(
                w.add_joint(
                    RevoluteJoint::new(
                        torso,
                        arm,
                        Vec2::new(torso_len * 0.5 - 0.05, 0.0),
                        Vec2::new(arm_len * 0.5, 0.0),
                    )
                    .with_limits(-1.5, 1.5),
                ),
            );
        }
        Figure {
            world: w,
            torso,
            joints,
            gears: vec![80.0, 60.0, 30.0, 80.0, 60.0, 30.0, 20.0, 20.0],
        }
    }

    fn healthy(&self) -> bool {
        let t = self.figure.world.body(self.figure.torso);
        t.pos.y > 0.9 && (t.angle - UP).abs() < 1.0 && !self.figure.world.is_unstable()
    }
}

impl Env for Humanoid {
    fn name(&self) -> &'static str {
        "Humanoid"
    }

    fn obs_shape(&self) -> Vec<usize> {
        vec![self.figure.obs_dim()]
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { dim: 8, bound: 1.0 }
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        self.figure = Self::build();
        let mut rng = env_rng(seed);
        perturb(&mut self.figure, &mut rng, 0.01);
        self.t = 0;
        self.figure.observe()
    }

    fn step(&mut self, action: &Action) -> Step {
        let x0 = self.figure.world.body(self.figure.torso).pos.x;
        self.figure.apply_and_step(action.continuous());
        self.t += 1;
        let x1 = self.figure.world.body(self.figure.torso).pos.x;
        let vx = (x1 - x0) / (SUB_DT * SUBSTEPS as f32);
        // Gym Humanoid weights survival heavily; mirror that shape.
        let reward = 1.25 * vx + 2.0 - 0.01 * action.sq_norm();
        let done = !self.healthy() || self.t >= self.cfg.max_steps;
        Step {
            obs: self.figure.observe(),
            reward,
            done,
        }
    }

    fn max_steps(&self) -> usize {
        self.cfg.max_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{make_env, EnvId};

    fn zero_action(env: &dyn Env) -> Action {
        match env.action_space() {
            ActionSpace::Continuous { dim, .. } => Action::Continuous(vec![0.0; dim]),
            ActionSpace::Discrete(_) => Action::Discrete(0),
        }
    }

    #[test]
    fn hopper_obs_dim_matches_gym() {
        let mut env = Hopper::new(EnvConfig::default());
        let obs = env.reset(0);
        assert_eq!(obs.len(), 11);
        assert_eq!(env.obs_shape(), vec![11]);
    }

    #[test]
    fn walker_obs_dim_matches_gym() {
        let mut env = Walker2d::new(EnvConfig::default());
        assert_eq!(env.reset(0).len(), 17);
    }

    #[test]
    fn humanoid_obs_dim() {
        let mut env = Humanoid::new(EnvConfig::default());
        assert_eq!(env.reset(0).len(), 21);
        assert_eq!(env.action_space().dim(), 8);
    }

    #[test]
    fn standing_still_earns_alive_bonus() {
        for id in EnvId::MUJOCO_SET {
            let mut env = make_env(id, EnvConfig::default());
            env.reset(1);
            let a = zero_action(env.as_ref());
            let mut total = 0.0;
            let mut steps = 0;
            for _ in 0..30 {
                let s = env.step(&a);
                total += s.reward;
                steps += 1;
                if s.done {
                    break;
                }
            }
            assert!(steps > 3, "{:?} fell immediately", id.name());
            assert!(total > 0.0, "{:?} total {total}", id.name());
        }
    }

    #[test]
    fn random_actions_eventually_terminate_or_cap() {
        let mut env = Hopper::new(EnvConfig {
            max_steps: 200,
            ..EnvConfig::default()
        });
        let mut rng = env_rng(42);
        env.reset(7);
        let mut steps = 0;
        loop {
            let a: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let s = env.step(&Action::Continuous(a));
            steps += 1;
            assert!(s.reward.is_finite());
            for &o in &s.obs {
                assert!(o.is_finite(), "non-finite obs at step {steps}");
            }
            if s.done {
                break;
            }
            assert!(steps <= 200, "episode must respect max_steps");
        }
    }

    #[test]
    fn reset_is_deterministic_per_seed() {
        let mut a = Hopper::new(EnvConfig::default());
        let mut b = Hopper::new(EnvConfig::default());
        assert_eq!(a.reset(5), b.reset(5));
        let act = Action::Continuous(vec![0.3, -0.2, 0.1]);
        for _ in 0..10 {
            let sa = a.step(&act);
            let sb = b.step(&act);
            assert_eq!(sa.obs, sb.obs);
            assert_eq!(sa.reward, sb.reward);
        }
        let mut c = Hopper::new(EnvConfig::default());
        assert_ne!(a.reset(5), c.reset(6));
    }

    #[test]
    fn forward_torque_moves_hopper() {
        // Constant torque pattern should displace the hopper horizontally
        // relative to standing still (in either direction — we only check
        // that actuation has mechanical effect).
        let mut env = Hopper::new(EnvConfig {
            max_steps: 60,
            ..EnvConfig::default()
        });
        env.reset(3);
        let mut disp = 0.0f32;
        for _ in 0..40 {
            let s = env.step(&Action::Continuous(vec![0.8, -0.5, 0.4]));
            disp = s.obs[5]; // clamped vx
            if s.done {
                break;
            }
        }
        assert!(disp.abs() > 1e-4, "actuation had no effect: vx {disp}");
    }

    /// The environments whose figure the reference-step test drives.
    trait Figured: Env {
        fn figure(&mut self) -> &mut Figure;
    }
    impl Figured for Hopper {
        fn figure(&mut self) -> &mut Figure {
            &mut self.figure
        }
    }
    impl Figured for Walker2d {
        fn figure(&mut self) -> &mut Figure {
            &mut self.figure
        }
    }
    impl Figured for Humanoid {
        fn figure(&mut self) -> &mut Figure {
            &mut self.figure
        }
    }

    /// Every body's state as raw bits.
    fn body_bits(world: &World) -> Vec<[u32; 6]> {
        world
            .bodies
            .iter()
            .map(|b| [b.pos.x, b.pos.y, b.vel.x, b.vel.y, b.angle, b.angvel].map(f32::to_bits))
            .collect()
    }

    /// Steps `fast` through [`Env::step`] (so [`World::step`]) and `slow`
    /// through [`World::step_reference`] on the same 2,000 actions,
    /// resetting both whenever `fast`'s episode ends, and asserts their
    /// bodies agree bit for bit after every step, and that the run crossed
    /// resets and ground contacts.
    fn check_against_reference<E: Figured>(mut fast: E, mut slow: E, seed: u64) {
        let dim = fast.action_space().dim();
        let mut rng = env_rng(seed);
        let (mut resets, mut grounded) = (0, 0);
        fast.reset(seed);
        slow.reset(seed);
        for t in 0..2000 {
            // Alternate scripted bang-bang phases with seeded-random ones.
            let action: Vec<f32> = if (t / 50) % 2 == 0 {
                (0..dim)
                    .map(|i| if (t / 7 + i) % 2 == 0 { 1.0 } else { -1.0 })
                    .collect()
            } else {
                (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
            };
            let done = fast.step(&Action::Continuous(action.clone())).done;
            slow.figure()
                .apply_and_step_with(&action, World::step_reference);
            let world = &fast.figure().world;
            assert_eq!(
                body_bits(world),
                body_bits(&slow.figure().world),
                "{} diverged from the reference step at step {t}",
                fast.name()
            );
            grounded += usize::from(
                world
                    .bodies
                    .iter()
                    .any(|b| b.collide_ground && b.endpoints().iter().any(|p| p.y < 0.0)),
            );
            if done {
                resets += 1;
                fast.reset(seed + resets);
                slow.reset(seed + resets);
            }
        }
        let name = fast.name();
        assert!(resets >= 3, "{name}: only {resets} resets crossed");
        assert!(
            grounded >= 100,
            "{name}: only {grounded} steps touched ground"
        );
    }

    #[test]
    fn rotations_once_per_substep_match_reference_step() {
        let cfg = EnvConfig {
            max_steps: 300,
            ..EnvConfig::default()
        };
        check_against_reference(Hopper::new(cfg), Hopper::new(cfg), 11);
        check_against_reference(Walker2d::new(cfg), Walker2d::new(cfg), 12);
        check_against_reference(Humanoid::new(cfg), Humanoid::new(cfg), 13);
    }

    #[test]
    fn episode_cap_truncates() {
        let mut env = Hopper::new(EnvConfig {
            max_steps: 5,
            ..EnvConfig::default()
        });
        env.reset(0);
        let a = Action::Continuous(vec![0.0; 3]);
        let mut done = false;
        for _ in 0..5 {
            done = env.step(&a).done;
        }
        assert!(done, "must truncate at max_steps");
    }
}
