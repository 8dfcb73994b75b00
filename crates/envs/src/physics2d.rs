//! A compact 2-D rigid-body engine in the Box2D-lite tradition.
//!
//! This is the substitution substrate for MuJoCo (see DESIGN.md §2): planar
//! articulated figures built from thin segment bodies connected by revolute
//! joints with motors and soft angle limits, plus ground contact solved with
//! sequential impulses (accumulated, clamped, Baumgarte-stabilised).
//! Everything the locomotion environments need and nothing more.

/// A 2-D vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f32,
    /// Vertical component (up is positive; ground is `y = 0`).
    pub y: f32,
}

impl Vec2 {
    /// Constructs a vector.
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// The zero vector.
    pub const ZERO: Vec2 = Vec2::new(0.0, 0.0);

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec2) -> f32 {
        self.x * o.x + self.y * o.y
    }

    /// 2-D cross product (scalar).
    #[inline]
    pub fn cross(self, o: Vec2) -> f32 {
        self.x * o.y - self.y * o.x
    }

    /// Perpendicular (rotate +90°) scaled by `w`: `w × v` for angular velocity.
    #[inline]
    pub fn perp_scaled(self, w: f32) -> Vec2 {
        Vec2::new(-w * self.y, w * self.x)
    }

    /// Euclidean length.
    #[inline]
    pub fn len(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Rotates by `angle` radians.
    #[inline]
    pub fn rotated(self, angle: f32) -> Vec2 {
        self.rotated_by(angle.sin_cos())
    }

    /// Rotates by the angle whose `(sin, cos)` is given.
    #[inline]
    pub(crate) fn rotated_by(self, (s, c): (f32, f32)) -> Vec2 {
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x + o.x, self.y + o.y)
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        Vec2::new(self.x - o.x, self.y - o.y)
    }
}

impl std::ops::Mul<f32> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f32) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl std::ops::Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// Handle to a body in a [`World`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BodyId(pub usize);

/// Handle to a joint in a [`World`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JointId(pub usize);

/// A rigid segment body (thin capsule along its local x-axis).
#[derive(Clone, Debug)]
pub struct Body {
    /// Centre-of-mass position.
    pub pos: Vec2,
    /// Linear velocity.
    pub vel: Vec2,
    /// Orientation in radians.
    pub angle: f32,
    /// Angular velocity.
    pub angvel: f32,
    /// Segment length.
    pub length: f32,
    /// Inverse mass (0 = static).
    pub inv_mass: f32,
    /// Inverse rotational inertia (0 = static).
    pub inv_inertia: f32,
    /// Whether this body's endpoints collide with the ground.
    pub collide_ground: bool,
}

impl Body {
    /// Creates a dynamic segment of `length` and `mass` centred at `pos`
    /// with orientation `angle` (radians; segment axis is local x).
    pub fn segment(pos: Vec2, angle: f32, length: f32, mass: f32) -> Self {
        let inertia = mass * length * length / 12.0;
        Self {
            pos,
            vel: Vec2::ZERO,
            angle,
            angvel: 0.0,
            length,
            inv_mass: 1.0 / mass,
            inv_inertia: 1.0 / inertia.max(1e-6),
            collide_ground: true,
        }
    }

    /// World-space position of the local point `local` (relative to COM).
    pub fn world_point(&self, local: Vec2) -> Vec2 {
        self.pos + local.rotated(self.angle)
    }

    /// World-space endpoints of the segment.
    pub fn endpoints(&self) -> [Vec2; 2] {
        self.endpoints_by(self.angle.sin_cos())
    }

    /// [`Body::endpoints`] given the `(sin, cos)` of the body's angle.
    fn endpoints_by(&self, rot: (f32, f32)) -> [Vec2; 2] {
        let half = Vec2::new(self.length * 0.5, 0.0);
        [
            self.pos + half.rotated_by(rot),
            self.pos + (-half).rotated_by(rot),
        ]
    }

    fn apply_impulse(&mut self, p: Vec2, r: Vec2) {
        self.vel = self.vel + p * self.inv_mass;
        self.angvel += self.inv_inertia * r.cross(p);
    }
}

/// Revolute joint pinning a local anchor of body A to one of body B, with a
/// motor torque input and soft angle limits.
#[derive(Clone, Debug)]
pub struct RevoluteJoint {
    /// First body.
    pub body_a: BodyId,
    /// Second body.
    pub body_b: BodyId,
    /// Anchor in body A's local frame (relative to COM).
    pub local_a: Vec2,
    /// Anchor in body B's local frame.
    pub local_b: Vec2,
    /// Motor torque applied this step (set by the environment, cleared after).
    pub motor_torque: f32,
    /// Soft joint-angle limits on `angle_b - angle_a` (radians).
    pub limits: Option<(f32, f32)>,
    /// Rest offset subtracted when reporting the joint angle.
    pub ref_angle: f32,
}

impl RevoluteJoint {
    /// Creates a joint between two bodies at the given local anchors.
    pub fn new(body_a: BodyId, body_b: BodyId, local_a: Vec2, local_b: Vec2) -> Self {
        Self {
            body_a,
            body_b,
            local_a,
            local_b,
            motor_torque: 0.0,
            limits: None,
            ref_angle: 0.0,
        }
    }

    /// Adds soft angle limits (radians, relative angle `b - a - ref`).
    pub fn with_limits(mut self, lo: f32, hi: f32) -> Self {
        self.limits = Some((lo, hi));
        self
    }

    /// Sets the reference angle so the initial pose reads as zero.
    pub fn with_ref_angle(mut self, r: f32) -> Self {
        self.ref_angle = r;
        self
    }
}

/// A joint's constants over one substep: its anchors rotated into the
/// world frame and its effective mass matrix K (2x2, symmetric), functions
/// of the body angles and masses alone.
#[derive(Clone, Copy)]
struct JointFrame {
    ra: Vec2,
    rb: Vec2,
    k11: f32,
    k12: f32,
    k22: f32,
    det: f32,
}

struct Contact {
    body: usize,
    r: Vec2,
    penetration: f32,
    accum_n: f32,
    accum_t: f32,
}

/// Simulation world parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Gravity acceleration (negative y).
    pub gravity: f32,
    /// Velocity-solver iterations per substep.
    pub iterations: usize,
    /// Baumgarte position-correction factor.
    pub baumgarte: f32,
    /// Ground friction coefficient.
    pub friction: f32,
    /// Linear velocity damping per second.
    pub linear_damping: f32,
    /// Angular velocity damping per second.
    pub angular_damping: f32,
    /// Stiffness of soft joint limits.
    pub limit_stiffness: f32,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            gravity: -9.81,
            iterations: 10,
            baumgarte: 0.2,
            friction: 0.9,
            linear_damping: 0.02,
            angular_damping: 0.05,
            limit_stiffness: 120.0,
        }
    }
}

/// A 2-D world of segment bodies, revolute joints and a ground plane at `y = 0`.
pub struct World {
    /// All bodies.
    pub bodies: Vec<Body>,
    /// All joints.
    pub joints: Vec<RevoluteJoint>,
    /// Parameters.
    pub config: WorldConfig,
    /// Per-substep scratch, kept across steps so a warm world allocates
    /// nothing: each body's `(sin, cos)` of its angle, each joint's frame,
    /// and the ground contacts.
    rot: Vec<(f32, f32)>,
    frames: Vec<JointFrame>,
    contacts: Vec<Contact>,
}

impl World {
    /// Creates an empty world.
    pub fn new(config: WorldConfig) -> Self {
        Self {
            bodies: Vec::new(),
            joints: Vec::new(),
            config,
            rot: Vec::new(),
            frames: Vec::new(),
            contacts: Vec::new(),
        }
    }

    /// Adds a body, returning its handle.
    pub fn add_body(&mut self, body: Body) -> BodyId {
        self.bodies.push(body);
        BodyId(self.bodies.len() - 1)
    }

    /// Adds a joint, returning its handle.
    pub fn add_joint(&mut self, joint: RevoluteJoint) -> JointId {
        self.joints.push(joint);
        JointId(self.joints.len() - 1)
    }

    /// Immutable body accessor.
    pub fn body(&self, id: BodyId) -> &Body {
        &self.bodies[id.0]
    }

    /// Mutable body accessor.
    pub fn body_mut(&mut self, id: BodyId) -> &mut Body {
        &mut self.bodies[id.0]
    }

    /// Relative joint angle (`angle_b - angle_a - ref`).
    pub fn joint_angle(&self, id: JointId) -> f32 {
        let j = &self.joints[id.0];
        self.bodies[j.body_b.0].angle - self.bodies[j.body_a.0].angle - j.ref_angle
    }

    /// Relative joint angular velocity.
    pub fn joint_angvel(&self, id: JointId) -> f32 {
        let j = &self.joints[id.0];
        self.bodies[j.body_b.0].angvel - self.bodies[j.body_a.0].angvel
    }

    /// Sets the motor torque applied at a joint for the next step(s).
    pub fn set_motor(&mut self, id: JointId, torque: f32) {
        self.joints[id.0].motor_torque = torque;
    }

    /// True if any body state has gone non-finite (simulation blow-up).
    pub fn is_unstable(&self) -> bool {
        self.bodies.iter().any(|b| {
            !(b.pos.x.is_finite()
                && b.pos.y.is_finite()
                && b.vel.x.is_finite()
                && b.vel.y.is_finite()
                && b.angle.is_finite()
                && b.angvel.is_finite())
        })
    }

    /// Advances the simulation by `dt`, running the impulse solver.
    ///
    /// What the velocity iterations share is computed once, before them:
    /// one `sin_cos` per body, which places the contact points and rotates
    /// each joint's anchors into the world frame, and each joint's
    /// effective mass matrix. This is exact: both are functions of the body
    /// angles and masses alone, angles only change in the integrate stage
    /// (stage 4), and impulses move velocities only, so every iteration
    /// sees the bits it would have recomputed (pinned against
    /// `World::step_reference` by
    /// `rotations_once_per_substep_match_reference_step` in `mujoco.rs`).
    pub fn step(&mut self, dt: f32) {
        self.apply_forces(dt);
        let mut rot = std::mem::take(&mut self.rot);
        rot.clear();
        rot.extend(self.bodies.iter().map(|b| b.angle.sin_cos()));
        let mut contacts = std::mem::take(&mut self.contacts);
        self.collect_contacts(&mut contacts, |i, b| b.endpoints_by(rot[i]));
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        frames.extend(self.joints.iter().map(|j| {
            self.joint_frame(
                j,
                j.local_a.rotated_by(rot[j.body_a.0]),
                j.local_b.rotated_by(rot[j.body_b.0]),
            )
        }));
        // Stage 3, iterative velocity solve: joints then contacts.
        for _ in 0..self.config.iterations {
            for (j, frame) in self.joints.iter().zip(&frames) {
                Self::solve_joint(&mut self.bodies, j, frame, self.config, dt);
            }
            self.solve_contacts(&mut contacts, dt);
        }
        self.integrate(dt);
        self.rot = rot;
        self.frames = frames;
        self.contacts = contacts;
    }

    /// The tests' oracle for [`World::step`], with nothing hoisted: each
    /// contact point is rotated on its own, and every velocity iteration
    /// rotates each joint's anchors and builds its mass matrix afresh.
    #[cfg(test)]
    pub(crate) fn step_reference(&mut self, dt: f32) {
        self.apply_forces(dt);
        let mut contacts = Vec::new();
        self.collect_contacts(&mut contacts, |_, b| b.endpoints());
        for _ in 0..self.config.iterations {
            for j in &self.joints {
                let frame = self.joint_frame(
                    j,
                    j.local_a.rotated(self.bodies[j.body_a.0].angle),
                    j.local_b.rotated(self.bodies[j.body_b.0].angle),
                );
                Self::solve_joint(&mut self.bodies, j, &frame, self.config, dt);
            }
            self.solve_contacts(&mut contacts, dt);
        }
        self.integrate(dt);
    }

    /// Stage 1, external forces: gravity, joint motors, soft limits.
    fn apply_forces(&mut self, dt: f32) {
        let cfg = self.config;
        for b in &mut self.bodies {
            if b.inv_mass > 0.0 {
                b.vel.y += cfg.gravity * dt;
            }
        }
        for j in &self.joints {
            let tau = j.motor_torque;
            let mut limit_tau = 0.0f32;
            if let Some((lo, hi)) = j.limits {
                let rel =
                    self.bodies[j.body_b.0].angle - self.bodies[j.body_a.0].angle - j.ref_angle;
                let relv = self.bodies[j.body_b.0].angvel - self.bodies[j.body_a.0].angvel;
                if rel < lo {
                    limit_tau = cfg.limit_stiffness * (lo - rel) - 2.0 * relv;
                } else if rel > hi {
                    limit_tau = cfg.limit_stiffness * (hi - rel) - 2.0 * relv;
                }
            }
            let total = tau + limit_tau;
            let (ia, ib) = (j.body_a.0, j.body_b.0);
            let inv_ia = self.bodies[ia].inv_inertia;
            let inv_ib = self.bodies[ib].inv_inertia;
            self.bodies[ia].angvel -= total * inv_ia * dt;
            self.bodies[ib].angvel += total * inv_ib * dt;
        }
    }

    /// Stage 2, ground contacts at segment endpoints (body `i`'s placed by
    /// `endpoints`), into `contacts` (cleared first).
    fn collect_contacts(
        &self,
        contacts: &mut Vec<Contact>,
        endpoints: impl Fn(usize, &Body) -> [Vec2; 2],
    ) {
        contacts.clear();
        for (i, b) in self.bodies.iter().enumerate() {
            if !b.collide_ground || b.inv_mass == 0.0 {
                continue;
            }
            for p in endpoints(i, b) {
                if p.y < 0.0 {
                    contacts.push(Contact {
                        body: i,
                        r: p - b.pos,
                        penetration: -p.y,
                        accum_n: 0.0,
                        accum_t: 0.0,
                    });
                }
            }
        }
    }

    /// One velocity iteration over the ground contacts.
    fn solve_contacts(&mut self, contacts: &mut [Contact], dt: f32) {
        let cfg = self.config;
        for c in contacts {
            let b = &mut self.bodies[c.body];
            let r = c.r;
            let v = b.vel + r.perp_scaled(b.angvel);
            // Normal (0, 1): push out of the ground.
            let bias = cfg.baumgarte / dt * (c.penetration - 0.005).max(0.0);
            let mass_n = b.inv_mass + b.inv_inertia * r.x * r.x;
            let dn = -(v.y - bias) / mass_n.max(1e-9);
            let new_n = (c.accum_n + dn).max(0.0);
            let applied_n = new_n - c.accum_n;
            c.accum_n = new_n;
            b.apply_impulse(Vec2::new(0.0, applied_n), r);
            // Friction along (1, 0), clamped by μ * normal impulse.
            let v2 = b.vel + r.perp_scaled(b.angvel);
            let mass_t = b.inv_mass + b.inv_inertia * r.y * r.y;
            let dtn = -v2.x / mass_t.max(1e-9);
            let max_t = cfg.friction * c.accum_n;
            let new_t = (c.accum_t + dtn).clamp(-max_t, max_t);
            let applied_t = new_t - c.accum_t;
            c.accum_t = new_t;
            b.apply_impulse(Vec2::new(applied_t, 0.0), r);
        }
    }

    /// Stage 4, integrate positions and damp.
    fn integrate(&mut self, dt: f32) {
        let cfg = self.config;
        let lin_k = (1.0 - cfg.linear_damping * dt).max(0.0);
        let ang_k = (1.0 - cfg.angular_damping * dt).max(0.0);
        for b in &mut self.bodies {
            b.pos = b.pos + b.vel * dt;
            b.angle += b.angvel * dt;
            b.vel = b.vel * lin_k;
            b.angvel *= ang_k;
        }
        for j in &mut self.joints {
            j.motor_torque = 0.0;
        }
    }

    /// Joint `j`'s frame for anchors `ra`/`rb`, already rotated into the
    /// world frame.
    fn joint_frame(&self, j: &RevoluteJoint, ra: Vec2, rb: Vec2) -> JointFrame {
        let (a, b) = (&self.bodies[j.body_a.0], &self.bodies[j.body_b.0]);
        let (ma, inv_ia, mb, inv_ib) = (a.inv_mass, a.inv_inertia, b.inv_mass, b.inv_inertia);
        let k11 = ma + mb + inv_ia * ra.y * ra.y + inv_ib * rb.y * rb.y;
        let k12 = -inv_ia * ra.x * ra.y - inv_ib * rb.x * rb.y;
        let k22 = ma + mb + inv_ia * ra.x * ra.x + inv_ib * rb.x * rb.x;
        JointFrame {
            ra,
            rb,
            k11,
            k12,
            k22,
            det: k11 * k22 - k12 * k12,
        }
    }

    /// One velocity iteration of joint `j` in its substep's `frame`.
    fn solve_joint(
        bodies: &mut [Body],
        j: &RevoluteJoint,
        frame: &JointFrame,
        cfg: WorldConfig,
        dt: f32,
    ) {
        let JointFrame {
            ra,
            rb,
            k11,
            k12,
            k22,
            det,
        } = *frame;
        if det.abs() < 1e-12 {
            return;
        }
        let (ia, ib) = (j.body_a.0, j.body_b.0);
        let (a, b) = (&bodies[ia], &bodies[ib]);
        let c_err = (b.pos + rb) - (a.pos + ra);
        let rel_v = (b.vel + rb.perp_scaled(b.angvel)) - (a.vel + ra.perp_scaled(a.angvel));
        let bias = c_err * (cfg.baumgarte / dt);
        let rhs = -(rel_v + bias);
        let px = (rhs.x * k22 - rhs.y * k12) / det;
        let py = (k11 * rhs.y - k12 * rhs.x) / det;
        let p = Vec2::new(px, py);
        bodies[ia].apply_impulse(-p, ra);
        bodies[ib].apply_impulse(p, rb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(world: &mut World, steps: usize, dt: f32) {
        for _ in 0..steps {
            world.step(dt);
        }
    }

    #[test]
    fn falling_body_lands_on_ground() {
        let mut w = World::new(WorldConfig::default());
        let id = w.add_body(Body::segment(Vec2::new(0.0, 2.0), 0.0, 1.0, 1.0));
        settle(&mut w, 600, 0.008);
        let b = w.body(id);
        // The thin segment rests with endpoints at the ground.
        assert!(b.pos.y.abs() < 0.05, "rest height {}", b.pos.y);
        assert!(b.vel.len() < 0.1, "rest speed {}", b.vel.len());
        assert!(!w.is_unstable());
    }

    #[test]
    fn gravity_free_fall_before_contact() {
        let mut w = World::new(WorldConfig::default());
        let id = w.add_body(Body::segment(Vec2::new(0.0, 100.0), 0.0, 1.0, 1.0));
        let dt = 0.01;
        settle(&mut w, 50, dt);
        let b = w.body(id);
        // v ≈ g * t (damping makes it slightly smaller).
        let t = 50.0 * dt;
        assert!((b.vel.y + 9.81 * t).abs() < 0.2, "v {}", b.vel.y);
    }

    #[test]
    fn joint_holds_pendulum_anchor() {
        // Static anchor body + swinging rod pinned to it.
        let mut w = World::new(WorldConfig::default());
        let mut anchor = Body::segment(Vec2::new(0.0, 2.0), 0.0, 0.1, 1.0);
        anchor.inv_mass = 0.0;
        anchor.inv_inertia = 0.0;
        anchor.collide_ground = false;
        let a = w.add_body(anchor);
        // Rod hanging: centre 0.5 below anchor, oriented vertically (angle -pi/2).
        let rod = Body::segment(Vec2::new(0.0, 1.5), -std::f32::consts::FRAC_PI_2, 1.0, 1.0);
        let r = w.add_body(rod);
        w.add_joint(RevoluteJoint::new(a, r, Vec2::ZERO, Vec2::new(0.5, 0.0)));
        settle(&mut w, 400, 0.008);
        // Joint anchor must stay near the static anchor point.
        let rb = w.body(r);
        let anchor_world = rb.world_point(Vec2::new(0.5, 0.0));
        assert!(
            (anchor_world - Vec2::new(0.0, 2.0)).len() < 0.05,
            "{anchor_world:?}"
        );
        assert!(!w.is_unstable());
    }

    #[test]
    fn motor_torque_spins_free_body_pair() {
        let mut w = World::new(WorldConfig {
            gravity: 0.0,
            ..WorldConfig::default()
        });
        let a = w.add_body(Body::segment(Vec2::new(0.0, 5.0), 0.0, 1.0, 1.0));
        let b = w.add_body(Body::segment(Vec2::new(1.0, 5.0), 0.0, 1.0, 1.0));
        let j = w.add_joint(RevoluteJoint::new(
            a,
            b,
            Vec2::new(0.5, 0.0),
            Vec2::new(-0.5, 0.0),
        ));
        for _ in 0..50 {
            w.set_motor(j, 1.0);
            w.step(0.008);
        }
        // Positive torque increases the relative angle.
        assert!(w.joint_angle(j) > 0.01, "{}", w.joint_angle(j));
    }

    #[test]
    fn soft_limits_bound_joint_angle() {
        let mut w = World::new(WorldConfig {
            gravity: 0.0,
            ..WorldConfig::default()
        });
        let a = w.add_body(Body::segment(Vec2::new(0.0, 5.0), 0.0, 1.0, 1.0));
        let b = w.add_body(Body::segment(Vec2::new(1.0, 5.0), 0.0, 1.0, 1.0));
        let j = w.add_joint(
            RevoluteJoint::new(a, b, Vec2::new(0.5, 0.0), Vec2::new(-0.5, 0.0))
                .with_limits(-0.3, 0.3),
        );
        for _ in 0..1500 {
            w.set_motor(j, 4.0);
            w.step(0.004);
        }
        assert!(
            w.joint_angle(j) < 0.9,
            "limit should resist runaway: {}",
            w.joint_angle(j)
        );
        assert!(!w.is_unstable());
    }

    #[test]
    fn friction_stops_sliding() {
        let mut w = World::new(WorldConfig::default());
        let id = w.add_body(Body::segment(Vec2::new(0.0, 0.001), 0.0, 1.0, 1.0));
        w.body_mut(id).vel = Vec2::new(3.0, 0.0);
        settle(&mut w, 800, 0.008);
        assert!(w.body(id).vel.x.abs() < 0.05, "{}", w.body(id).vel.x);
    }

    #[test]
    fn vec2_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        let r = Vec2::new(1.0, 0.0).rotated(std::f32::consts::FRAC_PI_2);
        assert!((r.x).abs() < 1e-6 && (r.y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn world_point_accounts_for_rotation() {
        let mut b = Body::segment(Vec2::new(1.0, 1.0), 0.0, 2.0, 1.0);
        b.angle = std::f32::consts::FRAC_PI_2;
        let p = b.world_point(Vec2::new(1.0, 0.0));
        assert!((p.x - 1.0).abs() < 1e-5 && (p.y - 2.0).abs() < 1e-5);
    }
}
