// E4 — Fig. 4: the MOST structure and the structural substrate.
//
// Prints the frame's modal/stiffness summary (the numbers the substructure
// split is derived from), then measures assembly, factorization,
// condensation, and integrator step rates.
#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "most/most.h"
#include "structural/frame.h"
#include "structural/integrator.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace nees;

namespace {

void PrintFrameSummary() {
  std::printf("==== E4 (Fig. 4): the MOST two-bay single-story frame ====\n\n");
  most::MostOptions options;
  structural::FrameModel frame = most::BuildMostFrame(options);
  const structural::Matrix k = frame.AssembleStiffness();
  const structural::Matrix m = frame.AssembleMass();

  const most::StiffnessBreakdown breakdown =
      most::ComputeStiffnessBreakdown(options);
  util::TextTable table({"quantity", "value"});
  table.AddRow({"free DOFs", std::to_string(frame.FreeDofCount())});
  table.AddRow({"elements", std::to_string(frame.element_count())});
  table.AddRow({"UIUC column k (pin top)",
                util::Format("%.4g N/m", breakdown.left_n_per_m)});
  table.AddRow({"NCSA center k",
                util::Format("%.4g N/m", breakdown.middle_n_per_m)});
  table.AddRow({"CU column k (rigid top)",
                util::Format("%.4g N/m", breakdown.right_n_per_m)});
  table.AddRow({"total lateral k",
                util::Format("%.4g N/m", breakdown.total())});

  const double omega = std::sqrt(breakdown.total() / options.story_mass_kg);
  table.AddRow({"reduced-model period",
                util::Format("%.3f s", 2.0 * M_PI / omega)});
  table.AddRow({"central-difference dt limit",
                util::Format("%.3f s (MOST used %.3f)", 2.0 / omega,
                             options.dt_seconds)});

  // Full-frame first mode via inverse power iteration on M^-1 K.
  auto m_inv = structural::Inverse(m);
  if (m_inv.ok()) {
    auto lambda = structural::SmallestEigenvalue(*m_inv * k);
    if (lambda.ok() && *lambda > 0) {
      table.AddRow({"full-frame first mode",
                    util::Format("%.3f s", 2.0 * M_PI / std::sqrt(*lambda))});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void PrintIntegratorStabilityTable() {
  std::printf("==== E4b: PSD integrator stability (central difference vs "
              "operator splitting) ====\n\n");
  // SDOF with omega = 20 rad/s -> CD limit dt = 0.1 s. Sweep dt across the
  // limit; OS (exact K0) stays physical everywhere.
  structural::Matrix m = structural::Matrix::Identity(1) * 100.0;
  structural::Matrix c = structural::Matrix::Identity(1) * 80.0;  // 2% zeta
  structural::Matrix k = structural::Matrix::Identity(1) * 4.0e4;
  util::TextTable table({"dt [s]", "dt/dt_limit", "CD peak [m]",
                         "OS peak [m]"});
  for (const double dt : {0.02, 0.08, 0.11, 0.15, 0.3}) {
    const structural::GroundMotion motion =
        structural::Harmonic(dt, 400, 1.0, 0.5);
    structural::ElasticSubstructure cd_model(k);
    structural::CentralDifferencePsd cd(m, c, {1.0});
    auto cd_history = cd.Integrate(
        motion, [&](std::size_t, const structural::Vector& d)
            -> util::Result<structural::Vector> {
          structural::Vector force;
          NEES_RETURN_IF_ERROR(cd_model.Restore(d, force));
          return force;
        });
    structural::ElasticSubstructure os_model(k);
    structural::OperatorSplittingPsd os(m, c, k, {1.0});
    auto os_history = os.Integrate(
        motion, [&](std::size_t, const structural::Vector& d)
            -> util::Result<structural::Vector> {
          structural::Vector force;
          NEES_RETURN_IF_ERROR(os_model.Restore(d, force));
          return force;
        });
    auto fmt_peak = [](double peak) {
      return peak > 100.0 ? std::string("DIVERGED")
                          : util::Format("%.4f", peak);
    };
    table.AddRow({util::Format("%.2f", dt), util::Format("%.2f", dt / 0.1),
                  cd_history.ok() ? fmt_peak(cd_history->PeakDisplacement(0))
                                  : "error",
                  os_history.ok() ? fmt_peak(os_history->PeakDisplacement(0))
                                  : "error"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("(shape: CD blows up past dt/dt_limit = 1; OS is stable at any "
              "dt with K0 >= K —\n why stiff PSD tests use operator "
              "splitting)\n\n");
}

structural::FrameModel MultiStoryFrame(int stories, int bays) {
  most::MostOptions options;
  structural::FrameModel frame;
  std::vector<std::vector<std::size_t>> grid(
      stories + 1, std::vector<std::size_t>(bays + 1));
  for (int level = 0; level <= stories; ++level) {
    for (int col = 0; col <= bays; ++col) {
      grid[level][col] = frame.AddNode(col * options.bay_width_m,
                                       level * options.column_height_m);
      if (level == 0) frame.FixAll(grid[level][col]);
    }
  }
  for (int level = 1; level <= stories; ++level) {
    for (int col = 0; col <= bays; ++col) {
      frame.AddElement(grid[level - 1][col], grid[level][col],
                       options.column_section);
      if (col > 0) {
        frame.AddElement(grid[level][col - 1], grid[level][col],
                         options.beam_section);
      }
    }
  }
  return frame;
}

void BM_AssembleStiffness(benchmark::State& state) {
  structural::FrameModel frame =
      MultiStoryFrame(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.AssembleStiffness());
  }
  state.SetLabel(std::to_string(frame.FreeDofCount()) + " DOFs");
}
BENCHMARK(BM_AssembleStiffness)->Arg(1)->Arg(4)->Arg(10);

void BM_LuFactorAndSolve(benchmark::State& state) {
  structural::FrameModel frame =
      MultiStoryFrame(static_cast<int>(state.range(0)), 2);
  const structural::Matrix k = frame.AssembleStiffness();
  const structural::Vector load(k.rows(), 100.0);
  for (auto _ : state) {
    auto lu = structural::LuFactorization::Compute(k);
    benchmark::DoNotOptimize(lu->Solve(load));
  }
  state.SetLabel(std::to_string(k.rows()) + " DOFs");
}
BENCHMARK(BM_LuFactorAndSolve)->Arg(1)->Arg(4)->Arg(10);

void BM_GuyanCondensation(benchmark::State& state) {
  structural::FrameModel frame =
      MultiStoryFrame(static_cast<int>(state.range(0)), 2);
  // Retain one lateral DOF per story (nodes are numbered level-major).
  std::vector<std::size_t> retained;
  for (int story = 1; story <= state.range(0); ++story) {
    const auto dof =
        frame.DofIndex(static_cast<std::size_t>(story * 3),
                       structural::Dof::kUx);
    if (dof) retained.push_back(*dof);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.CondenseStiffness(retained));
  }
  state.SetLabel(std::to_string(frame.FreeDofCount()) + " -> " +
                 std::to_string(retained.size()) + " DOFs");
}
BENCHMARK(BM_GuyanCondensation)->Arg(1)->Arg(4)->Arg(10);

void BM_NewmarkStepRate(benchmark::State& state) {
  structural::FrameModel frame =
      MultiStoryFrame(static_cast<int>(state.range(0)), 2);
  const structural::Matrix k = frame.AssembleStiffness();
  const structural::Matrix m = frame.AssembleMass();
  const structural::Matrix c =
      structural::FrameModel::RayleighDamping(m, k, 10.0, 60.0, 0.02);
  const structural::Vector iota(k.rows(), 1.0);
  const structural::GroundMotion motion =
      structural::Harmonic(0.01, 500, 1.0, 2.0);
  structural::NewmarkBeta newmark(m, c, k, iota);
  for (auto _ : state) {
    benchmark::DoNotOptimize(newmark.Integrate(motion));
  }
  state.SetItemsProcessed(state.iterations() * 500);
  state.SetLabel(std::to_string(k.rows()) + " DOFs, 500 steps");
}
BENCHMARK(BM_NewmarkStepRate)->Arg(1)->Arg(4);

void BM_BoucWenRestore(benchmark::State& state) {
  structural::BoucWenSubstructure::Params params;
  structural::BoucWenSubstructure model(params);
  double d = 0.0;
  std::uint64_t i = 0;
  structural::Vector force;
  for (auto _ : state) {
    d = 0.02 * std::sin(0.01 * static_cast<double>(i++));
    benchmark::DoNotOptimize(model.Restore({d}, force));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BoucWenRestore);

void BM_SynthesizeQuake1500(benchmark::State& state) {
  structural::SyntheticQuakeParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(structural::SynthesizeQuake(params));
  }
}
BENCHMARK(BM_SynthesizeQuake1500);

}  // namespace

int main(int argc, char** argv) {
  PrintFrameSummary();
  PrintIntegratorStabilityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
