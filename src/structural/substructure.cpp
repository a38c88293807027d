#include "structural/substructure.h"

#include <algorithm>
#include <cmath>

namespace nees::structural {

ElasticSubstructure::ElasticSubstructure(Matrix stiffness)
    : stiffness_(std::move(stiffness)) {}

util::Status ElasticSubstructure::Restore(const Vector& displacement,
                                          Vector& force) {
  if (displacement.size() != stiffness_.rows()) {
    return util::InvalidArgument("displacement dimension mismatch");
  }
  stiffness_.MultiplyInto(displacement, force);
  return util::OkStatus();
}

BoucWenSubstructure::BoucWenSubstructure(Params params) : params_(params) {}

void BoucWenSubstructure::Reset() {
  d_prev_ = 0.0;
  z_ = 0.0;
}

util::Status BoucWenSubstructure::Restore(const Vector& displacement,
                                          Vector& force) {
  if (displacement.size() != 1) {
    return util::InvalidArgument("BoucWen is a 1-DOF model");
  }
  const double d = displacement[0];
  const double dy = params_.yield_displacement;
  const double delta = (d - d_prev_) / params_.substeps;

  // z evolves in displacement (quasi-static Bouc–Wen):
  //   dz/dd = [1 - |z|^n (gamma sgn(dd * z) + beta)] with z normalized by dy.
  for (int i = 0; i < params_.substeps; ++i) {
    const double zn = std::pow(std::fabs(z_), params_.exponent);
    const double sign_term =
        (delta * z_ >= 0.0) ? (params_.gamma + params_.beta)
                            : (params_.gamma - params_.beta);
    const double dz = (delta / dy) * (1.0 - zn * sign_term);
    z_ += dz;
    // Keep z in its physical range [-1, 1] against integration overshoot.
    z_ = std::clamp(z_, -1.0, 1.0);
  }
  d_prev_ = d;

  const double k = params_.elastic_stiffness;
  force.assign(1, params_.alpha * k * d + (1.0 - params_.alpha) * k * dy * z_);
  return util::OkStatus();
}

FirstOrderKineticSubstructure::FirstOrderKineticSubstructure(Params params)
    : params_(params) {}

void FirstOrderKineticSubstructure::Reset() { position_ = 0.0; }

util::Status FirstOrderKineticSubstructure::Restore(
    const Vector& displacement, Vector& force) {
  if (displacement.size() != 1) {
    return util::InvalidArgument("kinetic simulator is a 1-DOF model");
  }
  const double target = displacement[0];
  const double decay = std::exp(-params_.dt / params_.time_constant);
  position_ = target + (position_ - target) * decay;
  force.assign(1, params_.stiffness * position_);
  return util::OkStatus();
}

}  // namespace nees::structural
