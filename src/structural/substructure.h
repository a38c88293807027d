// Substructure restoring-force models. MS-PSDS testing (§3) splits the
// structure into substructures that each map an imposed boundary
// displacement to a restoring force. These models back both the numerical
// substructures (NCSA's simulation) and the emulated physical specimens
// (the testbed module wraps them with actuator/sensor dynamics).
#pragma once

#include <memory>

#include "structural/linalg.h"
#include "util/result.h"

namespace nees::structural {

/// Maps boundary displacement -> restoring force. Stateful models (e.g.
/// hysteretic) update their internal state on each call, so calls must be
/// made once per time step in order.
class SubstructureModel {
 public:
  virtual ~SubstructureModel() = default;

  virtual std::size_t dof_count() const = 0;

  /// Applies the displacement and writes the restoring force into `force`
  /// (resized to dof_count(), its storage reused; must not alias
  /// `displacement`).
  virtual util::Status Restore(const Vector& displacement, Vector& force) = 0;

  /// Resets internal state to the undeformed configuration.
  virtual void Reset() {}
};

/// Linear elastic: r = K d.
class ElasticSubstructure final : public SubstructureModel {
 public:
  explicit ElasticSubstructure(Matrix stiffness);

  std::size_t dof_count() const override { return stiffness_.rows(); }
  util::Status Restore(const Vector& displacement, Vector& force) override;
  const Matrix& stiffness() const { return stiffness_; }

 private:
  Matrix stiffness_;
};

/// Scalar Bouc–Wen hysteresis (1 DOF):
///   r = alpha k d + (1 - alpha) k z,
///   z' = d' [A - |z/dy|^n (gamma sgn(d' z) + beta)] / dy-normalized form.
/// The evolution is integrated per displacement increment (quasi-static,
/// which matches PSD loading). Models yielding steel columns.
class BoucWenSubstructure final : public SubstructureModel {
 public:
  struct Params {
    double elastic_stiffness = 1e6;  // N/m
    double yield_displacement = 0.01;  // m
    double alpha = 0.05;  // post-yield stiffness ratio
    double beta = 0.5;
    double gamma = 0.5;
    double exponent = 2.0;
    int substeps = 20;  // inner integration substeps per call
  };

  explicit BoucWenSubstructure(Params params);

  std::size_t dof_count() const override { return 1; }
  util::Status Restore(const Vector& displacement, Vector& force) override;
  void Reset() override;

  double hysteretic_variable() const { return z_; }

 private:
  Params params_;
  double d_prev_ = 0.0;
  double z_ = 0.0;
};

/// First-order kinetic simulator (paper §3.5: "a program where the beam is
/// replaced by a first-order kinetic simulator ... applicable for testing
/// when the actual hardware is not available"): the reported displacement
/// relaxes toward the command with time constant tau, and the force is the
/// elastic response at the *relaxed* position.
class FirstOrderKineticSubstructure final : public SubstructureModel {
 public:
  struct Params {
    double stiffness = 1e5;       // N/m
    double time_constant = 0.05;  // s
    double dt = 0.02;             // s per Restore() call
  };

  explicit FirstOrderKineticSubstructure(Params params);

  std::size_t dof_count() const override { return 1; }
  util::Status Restore(const Vector& displacement, Vector& force) override;
  void Reset() override;

  double position() const { return position_; }

 private:
  Params params_;
  double position_ = 0.0;
};

}  // namespace nees::structural
