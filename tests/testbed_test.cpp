// Tests for the emulated physical rigs: actuator servo behaviour, stepper
// quantization, sensor models, specimen safety interlocks, the
// Shore-Western line protocol, and the xPC target emulation.
#include <cmath>

#include <gtest/gtest.h>

#include "net/network.h"
#include "structural/substructure.h"
#include "testbed/motion.h"
#include "testbed/sensors.h"
#include "testbed/shorewestern.h"
#include "testbed/specimen.h"
#include "testbed/xpc.h"
#include "util/stats.h"

namespace nees::testbed {
namespace {

using util::ErrorCode;

// --- actuator ------------------------------------------------------------------

TEST(ActuatorTest, SettlesAtTarget) {
  ServoHydraulicActuator actuator({});
  auto position = actuator.MoveTo(0.01, 5.0);
  ASSERT_TRUE(position.ok());
  EXPECT_NEAR(*position, 0.01, 1e-4);
  EXPECT_GT(actuator.elapsed_motion_seconds(), 0.0);
}

TEST(ActuatorTest, RespectsStrokeLimit) {
  ServoHydraulicActuator::Params params;
  params.stroke_m = 0.1;
  ServoHydraulicActuator actuator(params);
  EXPECT_EQ(actuator.MoveTo(0.2, 5.0).status().code(), ErrorCode::kOutOfRange);
}

TEST(ActuatorTest, LargeMoveTakesLongerThanSmallMove) {
  ServoHydraulicActuator a({}), b({});
  ASSERT_TRUE(a.MoveTo(0.001, 10.0).ok());
  ASSERT_TRUE(b.MoveTo(0.1, 10.0).ok());
  EXPECT_GT(b.elapsed_motion_seconds(), a.elapsed_motion_seconds());
}

TEST(ActuatorTest, VelocityLimitBoundsTravelTime) {
  ServoHydraulicActuator::Params params;
  params.max_velocity_ms = 0.05;
  ServoHydraulicActuator actuator(params);
  // 0.1 m at 0.05 m/s needs at least 2 s of motion.
  ASSERT_TRUE(actuator.MoveTo(0.1, 10.0).ok());
  EXPECT_GE(actuator.elapsed_motion_seconds(), 2.0);
}

TEST(ActuatorTest, TimesOutWhenBudgetTooSmall) {
  ServoHydraulicActuator actuator({});
  auto result = actuator.MoveTo(0.1, 0.05);  // far too little time
  EXPECT_EQ(result.status().code(), ErrorCode::kTimeout);
}

TEST(ActuatorTest, ResetRehomes) {
  ServoHydraulicActuator actuator({});
  ASSERT_TRUE(actuator.MoveTo(0.01, 5.0).ok());
  actuator.Reset();
  EXPECT_EQ(actuator.position(), 0.0);
  EXPECT_EQ(actuator.elapsed_motion_seconds(), 0.0);
}

TEST(ActuatorTest, SequentialMovesTrackTargets) {
  ServoHydraulicActuator actuator({});
  for (double target : {0.005, -0.003, 0.012, 0.0}) {
    auto position = actuator.MoveTo(target, 5.0);
    ASSERT_TRUE(position.ok());
    EXPECT_NEAR(*position, target, 1e-4);
  }
}

// --- stepper -------------------------------------------------------------------

TEST(StepperTest, PositionQuantizedToWholeSteps) {
  StepperMotor::Params params;
  params.step_size_m = 1e-5;
  StepperMotor stepper(params);
  auto position = stepper.MoveTo(1.04e-4, 1.0);  // 10.4 steps -> 10 steps
  ASSERT_TRUE(position.ok());
  EXPECT_NEAR(*position, 1.0e-4, 1e-12);
  EXPECT_EQ(stepper.total_steps_taken(), 10);
}

TEST(StepperTest, StepRateLimitsTravel) {
  StepperMotor::Params params;
  params.step_size_m = 1e-5;
  params.steps_per_second = 100;
  StepperMotor stepper(params);
  // 1000 steps needed, budget of 0.5 s allows only 50.
  auto position = stepper.MoveTo(0.01, 0.5);
  EXPECT_EQ(position.status().code(), ErrorCode::kTimeout);
  EXPECT_NEAR(stepper.position(), 50 * 1e-5, 1e-12);
}

TEST(StepperTest, BidirectionalMoves) {
  StepperMotor stepper({});
  ASSERT_TRUE(stepper.MoveTo(0.001, 10.0).ok());
  ASSERT_TRUE(stepper.MoveTo(-0.001, 10.0).ok());
  EXPECT_NEAR(stepper.position(), -0.001, 1e-9);
}

TEST(StepperTest, StrokeLimit) {
  StepperMotor::Params params;
  params.stroke_m = 0.01;
  StepperMotor stepper(params);
  EXPECT_EQ(stepper.MoveTo(0.02, 1.0).status().code(), ErrorCode::kOutOfRange);
}

// --- sensors -------------------------------------------------------------------

TEST(SensorTest, NoiseStatisticsMatchModel) {
  SensorParams params;
  params.noise_std = 0.1;
  Sensor sensor("s", params, 7);
  util::SampleStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(sensor.Measure(5.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 0.1, 0.01);
  EXPECT_EQ(sensor.sample_count(), 20000u);
}

TEST(SensorTest, GainAndBias) {
  SensorParams params;
  params.gain = 2.0;
  params.bias = 1.0;
  Sensor sensor("s", params, 7);
  EXPECT_DOUBLE_EQ(sensor.Measure(3.0), 7.0);
}

TEST(SensorTest, QuantizationSnapsToLsb) {
  SensorParams params;
  params.quantization = 0.5;
  Sensor sensor("s", params, 7);
  EXPECT_DOUBLE_EQ(sensor.Measure(1.26), 1.5);
  EXPECT_DOUBLE_EQ(sensor.Measure(1.24), 1.0);
}

TEST(SensorTest, SaturatesAtRange) {
  SensorParams params;
  params.range = 10.0;
  Sensor sensor("s", params, 7);
  EXPECT_DOUBLE_EQ(sensor.Measure(100.0), 10.0);
  EXPECT_DOUBLE_EQ(sensor.Measure(-100.0), -10.0);
}

TEST(SensorTest, PresetsAreReasonablyAccurate) {
  Sensor lvdt = MakeLvdt(1);
  Sensor load = MakeLoadCell(2);
  // 1 cm displacement measured within 0.1 mm; 1 kN within 100 N.
  EXPECT_NEAR(lvdt.Measure(0.01), 0.01, 1e-4);
  EXPECT_NEAR(load.Measure(1000.0), 1000.0, 100.0);
}

// --- specimen ------------------------------------------------------------------

PhysicalSpecimen MakeElasticSpecimen(double stiffness, SafetyLimits limits) {
  PhysicalSpecimen::Config config;
  config.name = "test-rig";
  config.limits = limits;
  structural::Matrix k(1, 1);
  k(0, 0) = stiffness;
  return PhysicalSpecimen(
      config, std::make_unique<ServoHydraulicActuator>(
                  ServoHydraulicActuator::Params{}),
      std::make_unique<structural::ElasticSubstructure>(k));
}

TEST(SpecimenTest, MeasuredForceTracksStiffness) {
  auto specimen = MakeElasticSpecimen(1e6, {});
  auto measurement = specimen.ApplyDisplacement(0.01);
  ASSERT_TRUE(measurement.ok());
  EXPECT_NEAR(measurement->displacement_m, 0.01, 2e-4);
  EXPECT_NEAR(measurement->force_n, 1e4, 300.0);
}

TEST(SpecimenTest, TravelLimitRejectsWithoutMoving) {
  SafetyLimits limits;
  limits.max_displacement_m = 0.005;
  auto specimen = MakeElasticSpecimen(1e6, limits);
  auto result = specimen.ApplyDisplacement(0.01);
  EXPECT_EQ(result.status().code(), ErrorCode::kSafetyInterlock);
  EXPECT_FALSE(specimen.interlock_tripped());  // rejected, not tripped
  EXPECT_EQ(specimen.motion().position(), 0.0);
}

TEST(SpecimenTest, ForceLimitTripsInterlock) {
  SafetyLimits limits;
  limits.max_force_n = 5e3;  // 1e6 N/m * 0.01 m = 1e4 N > limit
  auto specimen = MakeElasticSpecimen(1e6, limits);
  auto result = specimen.ApplyDisplacement(0.01);
  EXPECT_EQ(result.status().code(), ErrorCode::kSafetyInterlock);
  EXPECT_TRUE(specimen.interlock_tripped());

  // While tripped, every command fails.
  EXPECT_EQ(specimen.ApplyDisplacement(0.001).status().code(),
            ErrorCode::kSafetyInterlock);
  specimen.ResetInterlock();
  EXPECT_TRUE(specimen.ApplyDisplacement(0.001).ok());
}

// Counts commands, so a test can tell a rejected target from one that
// reached the motion system.
class CountingMotion final : public MotionSystem {
 public:
  explicit CountingMotion(int* moves) : moves_(moves) {}
  util::Result<double> MoveTo(double target_m, double) override {
    ++*moves_;
    position_ = target_m;
    return position_;
  }
  double position() const override { return position_; }
  void Reset() override { position_ = 0.0; }

 private:
  int* moves_;
  double position_ = 0.0;
};

TEST(SpecimenTest, NonFiniteTargetRejectsBeforeMoving) {
  int moves = 0;
  structural::Matrix k(1, 1);
  k(0, 0) = 1e6;
  PhysicalSpecimen specimen(
      PhysicalSpecimen::Config{}, std::make_unique<CountingMotion>(&moves),
      std::make_unique<structural::ElasticSubstructure>(k));
  for (const double target : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_EQ(specimen.ApplyDisplacement(target).status().code(),
              ErrorCode::kSafetyInterlock)
        << target;
  }
  EXPECT_EQ(moves, 0);
  EXPECT_FALSE(specimen.interlock_tripped());  // rejected, not tripped
}

// A model whose restoring force is NaN: a broken model or a NaN that got
// past the travel check.
class NanForceModel final : public structural::SubstructureModel {
 public:
  std::size_t dof_count() const override { return 1; }
  util::Status Restore(const structural::Vector&,
                       structural::Vector& force) override {
    force.assign(1, std::nan(""));
    return util::Status::Ok();
  }
};

TEST(SpecimenTest, NanForceTripsInterlock) {
  int moves = 0;
  PhysicalSpecimen specimen(PhysicalSpecimen::Config{},
                            std::make_unique<CountingMotion>(&moves),
                            std::make_unique<NanForceModel>());
  EXPECT_EQ(specimen.ApplyDisplacement(0.001).status().code(),
            ErrorCode::kSafetyInterlock);
  EXPECT_TRUE(specimen.interlock_tripped());
}

TEST(SpecimenTest, EStopLatches) {
  auto specimen = MakeElasticSpecimen(1e6, {});
  specimen.EStop();
  EXPECT_TRUE(specimen.interlock_tripped());
  EXPECT_FALSE(specimen.ApplyDisplacement(0.001).ok());
}

TEST(SpecimenTest, RigPresetsApplyDisplacement) {
  auto uiuc = MakeUiucColumnRig(5e6, 1);
  auto cu = MakeCuColumnRig(5e6, 2);
  auto mini = MakeMiniMostRig(2000.0, 3);
  EXPECT_TRUE(uiuc->ApplyDisplacement(0.005).ok());
  EXPECT_TRUE(cu->ApplyDisplacement(0.005).ok());
  EXPECT_TRUE(mini->ApplyDisplacement(0.002).ok());
}

TEST(SpecimenTest, HystereticRigShowsPathDependence) {
  auto rig = MakeUiucColumnRig(5e6, 1);
  // Drive far past yield, then return to zero: residual force differs from
  // the virgin state (the "cannot undo" property, §2.1).
  ASSERT_TRUE(rig->ApplyDisplacement(0.1).ok());
  auto back = rig->ApplyDisplacement(0.0);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(std::fabs(back->force_n), 1e3);
}

// --- Shore-Western emulator ------------------------------------------------------

class ShoreWesternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    emulator_ = std::make_unique<ShoreWesternEmulator>(
        &network_, "sw.uiuc", MakeElasticSpecimenPtr());
    ASSERT_TRUE(emulator_->Start().ok());
    rpc_ = std::make_unique<net::RpcClient>(&network_, "plugin");
    client_ = std::make_unique<ShoreWesternClient>(rpc_.get(), "sw.uiuc");
  }

  static std::unique_ptr<PhysicalSpecimen> MakeElasticSpecimenPtr() {
    PhysicalSpecimen::Config config;
    config.name = "uiuc";
    structural::Matrix k(1, 1);
    k(0, 0) = 1e6;
    return std::make_unique<PhysicalSpecimen>(
        config,
        std::make_unique<ServoHydraulicActuator>(
            ServoHydraulicActuator::Params{}),
        std::make_unique<structural::ElasticSubstructure>(k));
  }

  net::Network network_;
  std::unique_ptr<ShoreWesternEmulator> emulator_;
  std::unique_ptr<net::RpcClient> rpc_;
  std::unique_ptr<ShoreWesternClient> client_;
};

TEST_F(ShoreWesternTest, Hello) {
  auto reply = client_->SendLine("HELLO");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "OK ShoreWestern SC6000 sim");
}

TEST_F(ShoreWesternTest, MoveAndRead) {
  auto move = client_->Move(0.01);
  ASSERT_TRUE(move.ok());
  EXPECT_NEAR(move->position_m, 0.01, 2e-4);
  EXPECT_NEAR(move->force_n, 1e4, 300.0);
  EXPECT_GT(move->motion_seconds, 0.0);

  auto read = client_->Read();
  ASSERT_TRUE(read.ok());
  EXPECT_NEAR(read->displacement_m, 0.01, 2e-4);
}

TEST_F(ShoreWesternTest, ProtocolErrors) {
  EXPECT_EQ(*client_->SendLine("MOVE"), "ERR MOVE requires one argument");
  EXPECT_EQ(*client_->SendLine("MOVE abc"), "ERR bad number");
  EXPECT_EQ(*client_->SendLine("FROB 1"), "ERR unknown command FROB");
  EXPECT_EQ(*client_->SendLine("  "), "ERR empty command");
}

TEST_F(ShoreWesternTest, EStopAndResetFlow) {
  ASSERT_TRUE(client_->EStop().ok());
  auto move = client_->Move(0.001);
  EXPECT_EQ(move.status().code(), ErrorCode::kSafetyInterlock);
  ASSERT_TRUE(client_->Reset().ok());
  EXPECT_TRUE(client_->Move(0.001).ok());
}

TEST_F(ShoreWesternTest, SetLimitsAccepted) {
  EXPECT_TRUE(client_->SetLimits(0.1, 1e5).ok());
}

TEST_F(ShoreWesternTest, NetworkFaultSurfacesAsTimeout) {
  network_.DropNext("plugin", "sw.uiuc", 1);
  auto reply = client_->SendLine("HELLO");
  EXPECT_EQ(reply.status().code(), ErrorCode::kTimeout);
}

// --- xPC target ------------------------------------------------------------------

TEST(XpcTest, ExecutesAndCountsTicks) {
  XpcTarget::Params params;
  XpcTarget target(params, [] {
    PhysicalSpecimen::Config config;
    structural::Matrix k(1, 1);
    k(0, 0) = 1e6;
    return std::make_unique<PhysicalSpecimen>(
        config,
        std::make_unique<ServoHydraulicActuator>(
            ServoHydraulicActuator::Params{}),
        std::make_unique<structural::ElasticSubstructure>(k));
  }());
  auto measurement = target.Execute(0.01);
  ASSERT_TRUE(measurement.ok());
  EXPECT_GT(target.total_ticks(), 0);
  EXPECT_EQ(target.missed_deadlines(), 0);
}

TEST(XpcTest, OverloadedTickBudgetCountsMisses) {
  XpcTarget::Params params;
  params.tick_rate_hz = 1000.0;
  params.tick_cost_s = 0.002;  // 2x the period: overloaded
  XpcTarget target(params, [] {
    PhysicalSpecimen::Config config;
    structural::Matrix k(1, 1);
    k(0, 0) = 1e6;
    return std::make_unique<PhysicalSpecimen>(
        config,
        std::make_unique<ServoHydraulicActuator>(
            ServoHydraulicActuator::Params{}),
        std::make_unique<structural::ElasticSubstructure>(k));
  }());
  ASSERT_TRUE(target.Execute(0.005).ok());
  EXPECT_GT(target.missed_deadlines(), 0);
}

}  // namespace
}  // namespace nees::testbed
