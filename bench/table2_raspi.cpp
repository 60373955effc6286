// Reproduces Table II: training and inference speedup of the Edge TPU-based
// framework (with bagging) over a Raspberry Pi 3 running the same HDC
// workload entirely on its Cortex-A53 CPU — the "similar power budget"
// comparison (USB Edge TPU + idle host core vs ~4 W embedded board). The
// energy columns price the same runs with platform::EnergyModel: the Pi's
// joules over TPU_B's, for training and per inference.

#include <cstdio>

#include "bench_util.hpp"
#include "platform/energy.hpp"

int main(int argc, char** argv) {
  using namespace hdc;
  bench::BenchReporter reporter(argc, argv, "table2_raspi");

  const runtime::CostModel cost;
  const platform::EnergyModel energy;
  const auto pi = platform::raspberry_pi3_profile();
  const auto bag = bench::paper_bagging_shape();
  reporter.workload("dim", std::uint32_t{10000});
  reporter.workload("epochs", std::uint32_t{20});
  reporter.workload("baseline_platform", pi.name);

  bench::print_header("Table II: Edge TPU-based efficiency vs. Raspberry Pi 3");
  std::printf("(RasPi runs the full CPU baseline: d=10000, 20 iterations)\n\n");

  const struct {
    const char* name;
    double paper_train;
    double paper_infer;
  } anchors[] = {{"FACE", 21.5, 11.4},
                 {"ISOLET", 15.6, 7.2},
                 {"UCIHAR", 17.9, 7.9},
                 {"MNIST", 23.6, 11.1},
                 {"PAMAP2", 18.6, 6.8}};

  std::printf("%-10s %14s %14s %14s %14s %14s %14s\n", "dataset", "train paper",
              "train measured", "infer paper", "infer measured", "train energy", "infer energy");
  bench::print_rule();
  for (const auto& a : anchors) {
    const auto shape = bench::full_scale_shape(data::paper_dataset(a.name));
    const runtime::TrainTimings train_pi = cost.train_cpu(shape, pi);
    const runtime::TrainTimings train_tpu = cost.train_tpu_bagging(shape, bag);
    const SimDuration infer_pi = cost.infer_cpu(shape, pi).per_sample;
    const SimDuration infer_tpu = cost.infer_tpu_stacked(shape, bag).per_sample;
    const double train_speedup = train_pi.total().to_seconds() / train_tpu.total().to_seconds();
    const double infer_speedup = infer_pi / infer_tpu;
    const double train_energy = energy.cpu_task(pi, train_pi.total()).joules /
                                energy.codesign_training(train_tpu).joules;
    const double infer_energy = energy.cpu_task(pi, infer_pi).joules /
                                energy.codesign_inference(infer_tpu).joules;
    std::printf("%-10s %13.1fx %13.1fx %13.1fx %13.1fx %13.1fx %13.1fx\n", a.name,
                a.paper_train, train_speedup, a.paper_infer, infer_speedup, train_energy,
                infer_energy);
    reporter.sim_ratio(std::string(a.name) + ".train_speedup", train_speedup);
    reporter.sim_ratio(std::string(a.name) + ".infer_speedup", infer_speedup);
    reporter.sim_ratio(std::string(a.name) + ".train_energy_ratio", train_energy);
    reporter.sim_ratio(std::string(a.name) + ".infer_energy_ratio", infer_energy);
  }
  bench::print_rule();
  std::printf("\nplatform profiles: %s (%.1f W) vs %s (%.1f W)\n",
              platform::host_cpu_profile().name.c_str(),
              platform::host_cpu_profile().power_watts, pi.name.c_str(), pi.power_watts);
  std::printf("energy: the Pi's joules over TPU_B's (Edge TPU %.1f W active, host at "
              "%.0f%% while it works)\n",
              energy.tpu_active_watts, 100.0 * energy.host_idle_fraction);
  reporter.write();
  return 0;
}
