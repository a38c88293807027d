// Tests for the structural substrate: linear algebra against hand-derived
// results, beam mechanics against closed-form solutions, integrator accuracy
// against analytic SDOF dynamics, and substructure model physics.
#include <cmath>

#include <gtest/gtest.h>

#include "structural/element.h"
#include "structural/frame.h"
#include "structural/groundmotion.h"
#include "structural/integrator.h"
#include "structural/linalg.h"
#include "structural/substructure.h"

namespace nees::structural {
namespace {

// The integrators' restoring-force callback over `model`.
RestoringForceFn RestoringForce(SubstructureModel& model) {
  return [&model](std::size_t, const Vector& d) -> util::Result<Vector> {
    Vector force;
    NEES_RETURN_IF_ERROR(model.Restore(d, force));
    return force;
  };
}

// --- linear algebra ------------------------------------------------------------

TEST(MatrixTest, BasicOps) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Matrix b = Matrix::Identity(2) * 2.0;
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 6.0);
  const Matrix product = a * b;
  EXPECT_DOUBLE_EQ(product(0, 1), 4.0);
  const Matrix transpose = a.Transpose();
  EXPECT_DOUBLE_EQ(transpose(0, 1), 3.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector v = {1, 1, 1};
  const Vector result = a * v;
  EXPECT_DOUBLE_EQ(result[0], 6.0);
  EXPECT_DOUBLE_EQ(result[1], 15.0);
}

TEST(LuTest, SolveKnownSystem) {
  Matrix a(3, 3);
  a(0, 0) = 4;  a(0, 1) = 1;  a(0, 2) = 0;
  a(1, 0) = 1;  a(1, 1) = 3;  a(1, 2) = 1;
  a(2, 0) = 0;  a(2, 1) = 1;  a(2, 2) = 2;
  const Vector x_true = {1.0, -2.0, 3.0};
  const Vector b = a * x_true;
  auto x = SolveLinear(a, b);
  ASSERT_TRUE(x.ok());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-12);
}

TEST(LuTest, SingularMatrixRejected) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_FALSE(LuFactorization::Compute(a).ok());
}

TEST(LuTest, NonSquareRejected) {
  EXPECT_FALSE(LuFactorization::Compute(Matrix(2, 3)).ok());
}

TEST(LuTest, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  auto x = SolveLinear(a, {2.0, 3.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(LuTest, Determinant) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu->Determinant(), 10.0, 1e-10);
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_LT((*l * l->Transpose()).Distance(a), 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 5;
  a(1, 0) = 5;
  a(1, 1) = 1;
  EXPECT_FALSE(CholeskyFactor(a).ok());
  Matrix asym(2, 2);
  asym(0, 1) = 1.0;
  EXPECT_FALSE(CholeskyFactor(asym).ok());
}

TEST(InverseTest, InverseTimesOriginalIsIdentity) {
  Matrix a(3, 3);
  a(0, 0) = 2; a(0, 1) = 1; a(0, 2) = 1;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 2;
  a(2, 0) = 1; a(2, 1) = 0; a(2, 2) = 0;
  auto inverse = Inverse(a);
  ASSERT_TRUE(inverse.ok());
  EXPECT_LT((a * *inverse).Distance(Matrix::Identity(3)), 1e-10);
}

TEST(EigenTest, KnownEigenvalues) {
  // diag(1, 5) rotated is still {1, 5}; use a simple symmetric matrix:
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  auto largest = LargestEigenvalue(a);
  auto smallest = SmallestEigenvalue(a);
  ASSERT_TRUE(largest.ok());
  ASSERT_TRUE(smallest.ok());
  EXPECT_NEAR(*largest, 3.0, 1e-6);
  EXPECT_NEAR(*smallest, 1.0, 1e-6);
}

// --- beam mechanics --------------------------------------------------------------

Section TestSection() {
  Section section;
  section.youngs_modulus = 200e9;
  section.area = 0.01;               // m^2
  section.moment_of_inertia = 2e-5;  // m^4
  section.mass_per_length = 78.5;    // kg/m (steel, 0.01 m^2)
  return section;
}

TEST(ElementTest, LocalStiffnessIsSymmetric) {
  const Matrix k = BeamColumnElement::LocalStiffness(TestSection(), 3.0);
  EXPECT_TRUE(k.IsSymmetric(1e-3));
}

TEST(ElementTest, RigidBodyTranslationProducesNoForce) {
  const Matrix k = BeamColumnElement::LocalStiffness(TestSection(), 3.0);
  const Vector rigid = {1.0, 0.0, 0.0, 1.0, 0.0, 0.0};  // uniform axial shift
  EXPECT_LT(NormInf(k * rigid), 1e-3);
  const Vector rigid_lateral = {0.0, 1.0, 0.0, 0.0, 1.0, 0.0};
  EXPECT_LT(NormInf(k * rigid_lateral), 1e-3);
}

TEST(ElementTest, GlobalStiffnessRotationInvariantTrace) {
  BeamColumnElement element{0, 1, TestSection()};
  const Matrix horizontal = element.GlobalStiffness(0, 0, 3, 0);
  const Matrix vertical = element.GlobalStiffness(0, 0, 0, 3);
  double trace_h = 0, trace_v = 0;
  for (int i = 0; i < 6; ++i) {
    trace_h += horizontal(i, i);
    trace_v += vertical(i, i);
  }
  EXPECT_NEAR(trace_h, trace_v, trace_h * 1e-10);
}

TEST(ElementTest, ConsistentMassTotalMatchesMemberMass) {
  const Section section = TestSection();
  const double length = 3.0;
  const Matrix m = BeamColumnElement::LocalConsistentMass(section, length);
  // Rigid translation in y: v^T M v = total mass.
  const Vector rigid = {0, 1, 0, 0, 1, 0};
  EXPECT_NEAR(Dot(rigid, m * rigid), section.mass_per_length * length, 1e-6);
}

TEST(FrameTest, CantileverTipDeflectionMatchesTheory) {
  // Vertical cantilever of length L loaded laterally at the tip:
  // delta = P L^3 / (3 E I).
  const Section section = TestSection();
  const double length = 3.0;
  FrameModel frame;
  const std::size_t base = frame.AddNode(0, 0);
  const std::size_t tip = frame.AddNode(0, length);
  frame.FixAll(base);
  frame.AddElement(base, tip, section);

  const auto dof = frame.DofIndex(tip, Dof::kUx);
  ASSERT_TRUE(dof.has_value());
  Vector load(frame.FreeDofCount(), 0.0);
  const double p = 1000.0;
  load[*dof] = p;
  auto d = frame.SolveStatic(load);
  ASSERT_TRUE(d.ok());
  const double expected =
      p * std::pow(length, 3) /
      (3.0 * section.youngs_modulus * section.moment_of_inertia);
  EXPECT_NEAR((*d)[*dof], expected, expected * 1e-9);
}

TEST(FrameTest, CondensedCantileverStiffnessIs3EIoverL3) {
  const Section section = TestSection();
  const double length = 3.0;
  FrameModel frame;
  const std::size_t base = frame.AddNode(0, 0);
  const std::size_t tip = frame.AddNode(0, length);
  frame.FixAll(base);
  frame.AddElement(base, tip, section);

  const auto dof = frame.DofIndex(tip, Dof::kUx);
  ASSERT_TRUE(dof.has_value());
  auto condensed = frame.CondenseStiffness({*dof});
  ASSERT_TRUE(condensed.ok());
  EXPECT_NEAR((*condensed)(0, 0), CantileverLateralStiffness(section, length),
              1.0);
}

TEST(FrameTest, FixedRotationColumnGives12EIoverL3) {
  const Section section = TestSection();
  const double length = 3.0;
  FrameModel frame;
  const std::size_t base = frame.AddNode(0, 0);
  const std::size_t tip = frame.AddNode(0, length);
  frame.FixAll(base);
  frame.Fix(tip, Dof::kRz);  // rotation restrained (rigid beam above)
  frame.Fix(tip, Dof::kUy);
  frame.AddElement(base, tip, section);

  const auto dof = frame.DofIndex(tip, Dof::kUx);
  ASSERT_TRUE(dof.has_value());
  const Matrix k = frame.AssembleStiffness();
  EXPECT_NEAR(k(*dof, *dof), FixedFixedLateralStiffness(section, length), 1.0);
}

TEST(FrameTest, AssembledStiffnessSymmetricPositiveDefinite) {
  // Two-bay single-story frame (the MOST configuration, Fig. 4).
  const Section section = TestSection();
  FrameModel frame;
  const std::size_t b0 = frame.AddNode(0, 0);
  const std::size_t b1 = frame.AddNode(4, 0);
  const std::size_t b2 = frame.AddNode(8, 0);
  const std::size_t t0 = frame.AddNode(0, 3);
  const std::size_t t1 = frame.AddNode(4, 3);
  const std::size_t t2 = frame.AddNode(8, 3);
  frame.FixAll(b0);
  frame.FixAll(b1);
  frame.FixAll(b2);
  frame.AddElement(b0, t0, section);
  frame.AddElement(b1, t1, section);
  frame.AddElement(b2, t2, section);
  frame.AddElement(t0, t1, section);
  frame.AddElement(t1, t2, section);

  const Matrix k = frame.AssembleStiffness();
  EXPECT_EQ(k.rows(), 9u);  // 3 free nodes x 3 DOFs
  EXPECT_TRUE(k.IsSymmetric(1e-3));
  EXPECT_TRUE(CholeskyFactor(k).ok());  // SPD: restrained structure

  const Matrix m = frame.AssembleMass();
  EXPECT_TRUE(m.IsSymmetric(1e-6));
  EXPECT_TRUE(CholeskyFactor(m).ok());
}

TEST(FrameTest, LumpedMassAddsToTranslationalDofs) {
  FrameModel frame;
  const std::size_t base = frame.AddNode(0, 0);
  const std::size_t tip = frame.AddNode(0, 3);
  frame.FixAll(base);
  frame.AddElement(base, tip, TestSection());
  frame.AddLumpedMass(tip, 500.0);
  const Matrix with_mass = frame.AssembleMass();
  const auto ux = frame.DofIndex(tip, Dof::kUx);
  ASSERT_TRUE(ux.has_value());
  FrameModel bare;
  const std::size_t b2 = bare.AddNode(0, 0);
  const std::size_t t2 = bare.AddNode(0, 3);
  bare.FixAll(b2);
  bare.AddElement(b2, t2, TestSection());
  const Matrix without_mass = bare.AssembleMass();
  EXPECT_NEAR(with_mass(*ux, *ux) - without_mass(*ux, *ux), 500.0, 1e-9);
}

TEST(FrameTest, RayleighDampingHitsTargetRatios) {
  // SDOF sanity: with M=1, K=w^2, damping ratio at w should equal zeta.
  const double omega = 10.0;
  Matrix m = Matrix::Identity(1);
  Matrix k = Matrix::Identity(1) * (omega * omega);
  const Matrix c = FrameModel::RayleighDamping(m, k, omega, omega * 3, 0.05);
  // zeta(w) = c / (2 m w)... for Rayleigh: zeta = (alpha/w + beta*w)/2.
  const double zeta = c(0, 0) / (2.0 * omega);
  EXPECT_NEAR(zeta, 0.05, 1e-12);
}

// --- ground motion -----------------------------------------------------------------

TEST(GroundMotionTest, SyntheticQuakeHitsTargetPga) {
  SyntheticQuakeParams params;
  params.steps = 1500;
  params.peak_accel = 3.0;
  const GroundMotion motion = SynthesizeQuake(params);
  EXPECT_EQ(motion.steps(), 1500u);
  EXPECT_NEAR(motion.PeakAcceleration(), 3.0, 1e-9);
  EXPECT_NEAR(motion.duration(), 30.0, 1e-9);
}

TEST(GroundMotionTest, Deterministic) {
  SyntheticQuakeParams params;
  const GroundMotion a = SynthesizeQuake(params);
  const GroundMotion b = SynthesizeQuake(params);
  EXPECT_EQ(a.accel, b.accel);
  params.seed += 1;
  const GroundMotion c = SynthesizeQuake(params);
  EXPECT_NE(a.accel, c.accel);
}

TEST(GroundMotionTest, EnvelopeShapesRecord) {
  SyntheticQuakeParams params;
  params.steps = 1000;
  const GroundMotion motion = SynthesizeQuake(params);
  EXPECT_EQ(motion.accel[0], 0.0);  // envelope starts at zero
  // Tail should be much quieter than the strong phase.
  double strong = 0.0, tail = 0.0;
  for (std::size_t i = 200; i < 400; ++i) strong += std::fabs(motion.accel[i]);
  for (std::size_t i = 900; i < 1000; ++i) tail += std::fabs(motion.accel[i]);
  EXPECT_GT(strong / 200.0, 3.0 * (tail / 100.0));
}

TEST(GroundMotionTest, HarmonicAndPulseShapes) {
  const GroundMotion h = Harmonic(0.01, 100, 2.0, 1.0);
  EXPECT_NEAR(h.accel[25], 2.0, 1e-9);  // quarter period
  const GroundMotion p = SinePulse(0.01, 100, 2.0, 1.0);
  EXPECT_NEAR(p.accel[25], 2.0, 1e-9);
  EXPECT_EQ(p.accel[60], 0.0);  // pulse over after half period
}

TEST(GroundMotionTest, CsvExport) {
  const GroundMotion h = Harmonic(0.01, 3, 1.0, 1.0);
  const std::string csv = ToCsv(h);
  EXPECT_NE(csv.find("t,accel"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

// --- integrators --------------------------------------------------------------------

// SDOF parameters: m = 100 kg, k = 4e4 N/m -> omega = 20 rad/s, T = 0.314 s.
struct Sdof {
  double m = 100.0;
  double k = 4.0e4;
  double omega() const { return std::sqrt(k / m); }
};

TEST(NewmarkTest, FreeVibrationPeriodAndAmplitude) {
  const Sdof sys;
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix c(1, 1);
  Matrix k = Matrix::Identity(1) * sys.k;
  // Impulse start: emulate initial velocity via a one-step acceleration...
  // Simpler: short pulse then free vibration; verify periodicity.
  GroundMotion motion = SinePulse(0.005, 2000, 5.0, 10.0);
  NewmarkBeta newmark(m, c, k, {1.0});
  auto history = newmark.Integrate(motion);
  ASSERT_TRUE(history.ok());

  // Find the time between successive positive-going zero crossings late in
  // the record; should equal the natural period.
  const double expected_period = 2.0 * M_PI / sys.omega();
  std::vector<double> crossings;
  for (std::size_t i = 1000; i + 1 < history->displacement.size(); ++i) {
    const double a = history->displacement[i][0];
    const double b = history->displacement[i + 1][0];
    if (a < 0 && b >= 0) {
      crossings.push_back(0.005 * (i + (-a) / (b - a)));
    }
  }
  ASSERT_GE(crossings.size(), 3u);
  const double measured_period = crossings[2] - crossings[1];
  EXPECT_NEAR(measured_period, expected_period, expected_period * 0.01);

  // Average-acceleration Newmark adds no numerical damping: amplitude holds.
  double early_peak = 0, late_peak = 0;
  for (std::size_t i = 200; i < 400; ++i) {
    early_peak = std::max(early_peak, std::fabs(history->displacement[i][0]));
  }
  for (std::size_t i = 1600; i < 1800; ++i) {
    late_peak = std::max(late_peak, std::fabs(history->displacement[i][0]));
  }
  EXPECT_NEAR(late_peak, early_peak, early_peak * 0.02);
}

TEST(NewmarkTest, HarmonicSteadyStateMatchesTransferFunction) {
  const Sdof sys;
  const double zeta = 0.05;
  const double c_coeff = 2.0 * zeta * sys.omega() * sys.m;
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix c = Matrix::Identity(1) * c_coeff;
  Matrix k = Matrix::Identity(1) * sys.k;

  const double drive_hz = 2.0;  // well below resonance (3.18 Hz)
  const double amp = 1.0;
  GroundMotion motion = Harmonic(0.002, 20000, amp, drive_hz);
  NewmarkBeta newmark(m, c, k, {1.0});
  auto history = newmark.Integrate(motion);
  ASSERT_TRUE(history.ok());

  double steady_peak = 0;
  for (std::size_t i = 15000; i < history->displacement.size(); ++i) {
    steady_peak = std::max(steady_peak, std::fabs(history->displacement[i][0]));
  }
  const double w = 2.0 * M_PI * drive_hz;
  const double wn = sys.omega();
  const double r = w / wn;
  const double expected =
      amp / (wn * wn) /
      std::sqrt(std::pow(1 - r * r, 2) + std::pow(2 * zeta * r, 2));
  EXPECT_NEAR(steady_peak, expected, expected * 0.02);
}

TEST(CentralDifferenceTest, MatchesNewmarkOnLinearSystem) {
  const Sdof sys;
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix c = Matrix::Identity(1) * (2.0 * 0.02 * sys.omega() * sys.m);
  Matrix k = Matrix::Identity(1) * sys.k;
  GroundMotion motion = SinePulse(0.002, 3000, 3.0, 5.0);

  NewmarkBeta newmark(m, c, k, {1.0});
  auto reference = newmark.Integrate(motion);
  ASSERT_TRUE(reference.ok());

  ElasticSubstructure elastic(k);
  CentralDifferencePsd psd(m, c, {1.0});
  auto history = psd.Integrate(motion, RestoringForce(elastic));
  ASSERT_TRUE(history.ok());

  const double peak_ref = reference->PeakDisplacement(0);
  double max_diff = 0;
  for (std::size_t i = 0; i < history->displacement.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(history->displacement[i][0] -
                                  reference->displacement[i][0]));
  }
  EXPECT_LT(max_diff, 0.02 * peak_ref);
}

TEST(CentralDifferenceTest, StableDtLimitMatchesTheory) {
  const Sdof sys;
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix k = Matrix::Identity(1) * sys.k;
  // dt_max = 2 / omega = 0.1 s.
  EXPECT_NEAR(CentralDifferencePsd::StableDtLimit(m, k), 2.0 / sys.omega(),
              1e-6);
}

TEST(CentralDifferenceTest, DivergesAboveStabilityLimit) {
  const Sdof sys;
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix c(1, 1);
  Matrix k = Matrix::Identity(1) * sys.k;
  ElasticSubstructure elastic(k);
  CentralDifferencePsd psd(m, c, {1.0});

  GroundMotion unstable = Harmonic(0.12, 500, 1.0, 1.0);  // dt > 0.1 limit
  auto bad = psd.Integrate(unstable, RestoringForce(elastic));
  ASSERT_TRUE(bad.ok());
  EXPECT_GT(bad->PeakDisplacement(0), 1e3);  // exponential blow-up

  GroundMotion stable = Harmonic(0.02, 500, 1.0, 1.0);
  auto good = psd.Integrate(stable, RestoringForce(elastic));
  ASSERT_TRUE(good.ok());
  EXPECT_LT(good->PeakDisplacement(0), 1.0);
}

TEST(CentralDifferenceTest, RestoringFailureAbortsRun) {
  Matrix m = Matrix::Identity(1);
  Matrix c(1, 1);
  CentralDifferencePsd psd(m, c, {1.0});
  GroundMotion motion = Harmonic(0.01, 100, 1.0, 1.0);
  int calls = 0;
  auto history = psd.Integrate(
      motion, [&](std::size_t step, const Vector&) -> util::Result<Vector> {
        ++calls;
        if (step == 10) return util::Unavailable("site offline");
        return Vector{0.0};
      });
  EXPECT_FALSE(history.ok());
  EXPECT_EQ(history.status().code(), util::ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 11);
}

// --- operator-splitting integrator ------------------------------------------------

TEST(OperatorSplittingTest, MatchesNewmarkOnLinearSystemWithExactK0) {
  const Sdof sys;
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix c = Matrix::Identity(1) * (2.0 * 0.03 * sys.omega() * sys.m);
  Matrix k = Matrix::Identity(1) * sys.k;
  GroundMotion motion = SinePulse(0.002, 3000, 3.0, 5.0);

  NewmarkBeta newmark(m, c, k, {1.0});
  auto reference = newmark.Integrate(motion);
  ASSERT_TRUE(reference.ok());

  ElasticSubstructure elastic(k);
  OperatorSplittingPsd os(m, c, k, {1.0});
  auto history = os.Integrate(motion, RestoringForce(elastic));
  ASSERT_TRUE(history.ok());

  const double peak = reference->PeakDisplacement(0);
  double max_diff = 0;
  for (std::size_t i = 0; i < history->displacement.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::fabs(history->displacement[i][0] -
                                  reference->displacement[i][0]));
  }
  // With exact K0 and a linear structure, OS equals Newmark up to the
  // predictor's O(dt^2) local error.
  EXPECT_LT(max_diff, 0.02 * peak);
}

TEST(OperatorSplittingTest, StableBeyondCentralDifferenceLimit) {
  const Sdof sys;  // omega = 20, CD limit dt = 0.1
  Matrix m = Matrix::Identity(1) * sys.m;
  Matrix c = Matrix::Identity(1) * (2.0 * 0.02 * sys.omega() * sys.m);
  Matrix k = Matrix::Identity(1) * sys.k;
  GroundMotion coarse = Harmonic(0.15, 400, 1.0, 0.5);  // dt 50% over limit

  ElasticSubstructure elastic_cd(k);
  CentralDifferencePsd cd(m, c, {1.0});
  auto diverged = cd.Integrate(coarse, RestoringForce(elastic_cd));
  ASSERT_TRUE(diverged.ok());
  EXPECT_GT(diverged->PeakDisplacement(0), 1e3);  // explicit scheme blows up

  ElasticSubstructure elastic_os(k);
  OperatorSplittingPsd os(m, c, k, {1.0});
  auto bounded = os.Integrate(coarse, RestoringForce(elastic_os));
  ASSERT_TRUE(bounded.ok());
  EXPECT_LT(bounded->PeakDisplacement(0), 0.1);  // OS stays physical
}

TEST(OperatorSplittingTest, SofteningHystereticSystemStaysBounded) {
  // K0 = elastic stiffness; the Bouc-Wen model softens under yield, which
  // is the K_actual <= K0 regime OS is designed for.
  Matrix m = Matrix::Identity(1) * 100.0;
  Matrix c = Matrix::Identity(1) * 40.0;
  Matrix k0 = Matrix::Identity(1) * 4.0e4;
  BoucWenSubstructure::Params params;
  params.elastic_stiffness = 4.0e4;
  params.yield_displacement = 0.01;
  BoucWenSubstructure model(params);
  OperatorSplittingPsd os(m, c, k0, {1.0});
  GroundMotion motion = Harmonic(0.05, 600, 4.0, 1.0);  // strong + coarse dt
  auto history = os.Integrate(motion, RestoringForce(model));
  ASSERT_TRUE(history.ok());
  EXPECT_LT(history->PeakDisplacement(0), 1.0);
  EXPECT_GT(history->PeakDisplacement(0), 0.005);  // it did yield
}

TEST(OperatorSplittingTest, RestoringFailurePropagates) {
  Matrix m = Matrix::Identity(1);
  Matrix c(1, 1);
  Matrix k0 = Matrix::Identity(1);
  OperatorSplittingPsd os(m, c, k0, {1.0});
  GroundMotion motion = Harmonic(0.01, 50, 1.0, 1.0);
  auto history = os.Integrate(
      motion, [&](std::size_t step, const Vector&) -> util::Result<Vector> {
        if (step == 7) return util::Unavailable("site offline");
        return Vector{0.0};
      });
  EXPECT_EQ(history.status().code(), util::ErrorCode::kUnavailable);
}

// --- substructures -------------------------------------------------------------------

TEST(SubstructureTest, ElasticRestoringForce) {
  Matrix k = Matrix::Identity(2) * 1000.0;
  ElasticSubstructure elastic(k);
  Vector r;
  ASSERT_TRUE(elastic.Restore({0.01, -0.02}, r).ok());
  EXPECT_NEAR(r[0], 10.0, 1e-12);
  EXPECT_NEAR(r[1], -20.0, 1e-12);
  EXPECT_FALSE(elastic.Restore({1.0}, r).ok());  // wrong dimension
}

TEST(SubstructureTest, BoucWenSmallAmplitudeIsNearlyElastic) {
  BoucWenSubstructure::Params params;
  params.elastic_stiffness = 1e6;
  params.yield_displacement = 0.01;
  BoucWenSubstructure model(params);
  const double d = 0.0005;  // 5% of yield
  Vector r;
  ASSERT_TRUE(model.Restore({d}, r).ok());
  EXPECT_NEAR(r[0], params.elastic_stiffness * d,
              0.05 * params.elastic_stiffness * d);
}

TEST(SubstructureTest, BoucWenYieldBoundsForce) {
  BoucWenSubstructure::Params params;
  params.elastic_stiffness = 1e6;
  params.yield_displacement = 0.01;
  params.alpha = 0.0;  // elastic-perfectly-plastic: force capped at k*dy
  BoucWenSubstructure model(params);
  double force = 0.0;
  for (int i = 1; i <= 100; ++i) {
    Vector r;
    ASSERT_TRUE(model.Restore({0.001 * i}, r).ok());  // push to 10x yield
    force = r[0];
  }
  const double yield_force =
      params.elastic_stiffness * params.yield_displacement;
  EXPECT_NEAR(force, yield_force, 0.02 * yield_force);
}

TEST(SubstructureTest, BoucWenHysteresisDissipatesEnergy) {
  BoucWenSubstructure::Params params;
  params.elastic_stiffness = 1e6;
  params.yield_displacement = 0.01;
  BoucWenSubstructure model(params);
  // One full displacement cycle to 3x yield; integrate F dd (loop area).
  double energy = 0.0;
  double d_prev = 0.0, f_prev = 0.0;
  const int n = 400;
  for (int i = 1; i <= n; ++i) {
    const double d = 0.03 * std::sin(2.0 * M_PI * i / n);
    Vector r;
    ASSERT_TRUE(model.Restore({d}, r).ok());
    energy += 0.5 * (r[0] + f_prev) * (d - d_prev);
    d_prev = d;
    f_prev = r[0];
  }
  EXPECT_GT(energy, 100.0);  // a yielding cycle dissipates real energy
}

TEST(SubstructureTest, BoucWenResetRestoresVirginState) {
  BoucWenSubstructure::Params params;
  BoucWenSubstructure model(params);
  Vector force;
  (void)model.Restore({0.05}, force);
  EXPECT_NE(model.hysteretic_variable(), 0.0);
  model.Reset();
  EXPECT_EQ(model.hysteretic_variable(), 0.0);
}

TEST(SubstructureTest, FirstOrderKineticConvergesToCommand) {
  FirstOrderKineticSubstructure::Params params;
  params.stiffness = 1e5;
  params.time_constant = 0.05;
  params.dt = 0.02;
  FirstOrderKineticSubstructure model(params);
  double force = 0.0;
  for (int i = 0; i < 50; ++i) {
    Vector r;
    ASSERT_TRUE(model.Restore({0.01}, r).ok());
    force = r[0];
  }
  EXPECT_NEAR(model.position(), 0.01, 1e-6);
  EXPECT_NEAR(force, 1e3, 1.0);
}

TEST(SubstructureTest, FirstOrderKineticLagsStep) {
  FirstOrderKineticSubstructure::Params params;
  params.time_constant = 0.1;
  params.dt = 0.02;
  FirstOrderKineticSubstructure model(params);
  Vector r;
  ASSERT_TRUE(model.Restore({1.0}, r).ok());
  // After one dt the response is 1 - exp(-dt/tau) = 18.1% of the command.
  EXPECT_NEAR(model.position(), 1.0 - std::exp(-0.2), 1e-9);
}

}  // namespace
}  // namespace nees::structural
