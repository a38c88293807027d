#include "testbed/specimen.h"

#include "util/limit.h"
#include "util/logging.h"

namespace nees::testbed {

PhysicalSpecimen::PhysicalSpecimen(
    Config config, std::unique_ptr<MotionSystem> motion,
    std::unique_ptr<structural::SubstructureModel> model)
    : config_(config),
      motion_(std::move(motion)),
      model_(std::move(model)),
      // Instruments are scaled to the rig: a tabletop load cell must not
      // carry a 500 kN range, or its noise floor swamps the real forces.
      lvdt_(MakeLvdt(config.sensor_seed * 3 + 1,
                     config.limits.max_displacement_m * 2.0)),
      load_cell_(MakeLoadCell(config.sensor_seed * 3 + 2,
                              config.limits.max_force_n * 1.25)),
      strain_gauge_(MakeStrainGauge(config.sensor_seed * 3 + 3)) {}

util::Result<Measurement> PhysicalSpecimen::ApplyDisplacement(
    double target_m) {
  if (interlock_tripped_) {
    return util::SafetyInterlock(config_.name + ": interlock tripped");
  }
  if (!util::WithinLimit(target_m, config_.limits.max_displacement_m)) {
    return util::SafetyInterlock(config_.name + ": target " +
                                 std::to_string(target_m) +
                                 " exceeds travel limit");
  }

  double elapsed_before = 0.0;
  if (auto* actuator = dynamic_cast<ServoHydraulicActuator*>(motion_.get())) {
    elapsed_before = actuator->elapsed_motion_seconds();
  }
  auto position = motion_->MoveTo(target_m, config_.move_budget_s);
  if (!position.ok()) return position.status();
  if (auto* actuator = dynamic_cast<ServoHydraulicActuator*>(motion_.get())) {
    last_move_seconds_ = actuator->elapsed_motion_seconds() - elapsed_before;
  }

  structural::Vector force;
  NEES_RETURN_IF_ERROR(model_->Restore({*position}, force));
  last_true_force_ = force[0];

  if (!util::WithinLimit(last_true_force_, config_.limits.max_force_n)) {
    interlock_tripped_ = true;
    NEES_LOG_WARN("testbed." + config_.name)
        << "force limit exceeded (" << last_true_force_
        << " N); interlock tripped";
    return util::SafetyInterlock(config_.name + ": force limit exceeded");
  }
  return ReadSensors();
}

util::Result<Measurement> PhysicalSpecimen::ReadSensors() {
  Measurement measurement;
  measurement.displacement_m = lvdt_.Measure(motion_->position());
  measurement.force_n = load_cell_.Measure(last_true_force_);
  measurement.strain =
      strain_gauge_.Measure(last_true_force_ * config_.strain_per_newton);
  measurement.motion_seconds = last_move_seconds_;
  return measurement;
}

void PhysicalSpecimen::EStop() {
  interlock_tripped_ = true;
  NEES_LOG_WARN("testbed." + config_.name) << "emergency stop";
}

void PhysicalSpecimen::ResetInterlock() {
  interlock_tripped_ = false;
  NEES_LOG_INFO("testbed." + config_.name) << "interlock reset";
}

std::unique_ptr<PhysicalSpecimen> MakeUiucColumnRig(double stiffness_n_per_m,
                                                    std::uint64_t seed) {
  // UIUC: cantilever column, pin connection to the simulated beam (§3).
  PhysicalSpecimen::Config config;
  config.name = "uiuc-left-column";
  config.limits.max_displacement_m = 0.15;
  config.limits.max_force_n = 5e5;
  config.sensor_seed = seed;

  ServoHydraulicActuator::Params actuator;
  auto motion = std::make_unique<ServoHydraulicActuator>(actuator);

  structural::BoucWenSubstructure::Params model;
  model.elastic_stiffness = stiffness_n_per_m;
  model.yield_displacement = 0.05;  // stays mostly elastic in MOST drifts
  model.alpha = 0.1;
  return std::make_unique<PhysicalSpecimen>(
      config, std::move(motion),
      std::make_unique<structural::BoucWenSubstructure>(model));
}

std::unique_ptr<PhysicalSpecimen> MakeCuColumnRig(double stiffness_n_per_m,
                                                  std::uint64_t seed) {
  // CU: rigidly connected column, all rotations suppressed (§3).
  PhysicalSpecimen::Config config;
  config.name = "cu-right-column";
  config.limits.max_displacement_m = 0.15;
  config.limits.max_force_n = 5e5;
  config.sensor_seed = seed;

  ServoHydraulicActuator::Params actuator;
  actuator.max_velocity_ms = 0.04;  // the CU rig was slightly slower
  auto motion = std::make_unique<ServoHydraulicActuator>(actuator);

  structural::BoucWenSubstructure::Params model;
  model.elastic_stiffness = stiffness_n_per_m;
  model.yield_displacement = 0.05;
  model.alpha = 0.1;
  return std::make_unique<PhysicalSpecimen>(
      config, std::move(motion),
      std::make_unique<structural::BoucWenSubstructure>(model));
}

std::unique_ptr<PhysicalSpecimen> MakeMiniMostRig(double stiffness_n_per_m,
                                                  std::uint64_t seed) {
  // Mini-MOST: 1m x 10cm beam, stepper motor, scaled-back sensors (§3.5).
  PhysicalSpecimen::Config config;
  config.name = "mini-most-beam";
  config.limits.max_displacement_m = 0.03;
  config.limits.max_force_n = 500.0;
  config.sensor_seed = seed;
  config.strain_per_newton = 1e-6;

  StepperMotor::Params stepper;
  auto motion = std::make_unique<StepperMotor>(stepper);

  structural::BoucWenSubstructure::Params model;
  model.elastic_stiffness = stiffness_n_per_m;
  model.yield_displacement = 0.02;
  model.alpha = 0.15;
  return std::make_unique<PhysicalSpecimen>(
      config, std::move(motion),
      std::make_unique<structural::BoucWenSubstructure>(model));
}

}  // namespace nees::testbed
