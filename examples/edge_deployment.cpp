// Model build pipeline, end to end — what "deploying HDC to the Edge TPU"
// actually produces on disk and on the device:
//
//   float classifier -> wide-NN float HDLite model -> int8
//   post-training quantization -> EdgeTPU compilation (partition report)
//   -> .hdlt artifact -> reload -> execute on the simulated accelerator.
//
// Prints the artifact sizes, the compiler's device/host partition, the
// on-chip memory verdict, and the accuracy retained at each stage.

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "data/synthetic.hpp"
#include "lite/builder.hpp"
#include "lite/interpreter.hpp"
#include "lite/quantize.hpp"
#include "lite/serialize.hpp"
#include "platform/profiles.hpp"
#include "runtime/framework.hpp"
#include "tpu/compiler.hpp"
#include "tpu/device.hpp"

int main() {
  using namespace hdc;

  // A trained UCIHAR-style classifier (561 features, 12 classes).
  data::Dataset all = data::generate_synthetic(data::paper_dataset("UCIHAR"), 1600);
  auto split = data::split_dataset(all, 0.25, 17);
  data::MinMaxNormalizer normalizer;
  normalizer.fit(split.train);
  normalizer.apply(split.train);
  normalizer.apply(split.test);

  core::HdConfig config;
  config.dim = 4096;
  config.epochs = 15;
  core::Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()),
                        config.dim, config.seed);
  const core::Trainer trainer(config);
  core::TrainResult trained = trainer.fit(encoder, split.train);
  const core::TrainedClassifier classifier{std::move(encoder), std::move(trained.model)};

  // Stages 1-2: the wide-NN interpretation, as a float HDLite model.
  const lite::LiteModel float_model = lite::build_inference_model(classifier);
  std::printf("wide NN: %u -> %u -> %u (%llu MACs/sample)\n", classifier.num_features(),
              classifier.dim(), classifier.num_classes(),
              static_cast<unsigned long long>(float_model.macs_per_sample()));
  const auto float_bytes = lite::serialize_model(float_model);
  std::printf("float model:     %8.2f MiB (%zu tensors, %zu ops)\n",
              float_bytes.size() / 1048576.0, float_model.tensors.size(),
              float_model.ops.size());

  // Stage 3: post-training int8 quantization (128 calibration samples).
  tensor::MatrixF calibration(128, split.train.num_features());
  std::copy_n(split.train.features.data(), calibration.size(), calibration.data());
  const lite::LiteModel quantized = lite::quantize_model(float_model, calibration);
  const auto int8_bytes = lite::serialize_model(quantized);
  std::printf("int8 model:      %8.2f MiB (%.1fx smaller)\n",
              int8_bytes.size() / 1048576.0,
              static_cast<double>(float_bytes.size()) / int8_bytes.size());

  // Stage 4: EdgeTPU compilation + partition report.
  const tpu::EdgeTpuCompiler compiler(tpu::SystolicConfig{}, 8ULL << 20);
  const tpu::CompiledModel compiled = compiler.compile(quantized);
  std::printf("\n%s\n", compiled.report.to_string().c_str());

  // Stage 5: write / reload the deployable artifact.
  const auto path =
      (std::filesystem::temp_directory_path() / "ucihar_int8.hdlt").string();
  lite::save_model(quantized, path);
  const lite::LiteModel reloaded = lite::load_model(path);
  std::printf("artifact: %s (%ju bytes, checksum verified on load)\n", path.c_str(),
              static_cast<uintmax_t>(std::filesystem::file_size(path)));

  // Stage 6: run on the simulated accelerator and compare accuracy.
  tpu::EdgeTpuDevice device;
  const auto upload = device.load(compiled);
  tpu::InvokeOptions options;
  options.mode = tpu::ExecutionMode::kFunctional;
  options.interactive = true;
  auto [result, stats] = device.invoke(compiled, split.test.features, options,
                                       platform::host_cpu_profile().host_cost_model());

  std::vector<std::uint32_t> predictions(result.classes.begin(), result.classes.end());
  const double int8_acc = data::accuracy(predictions, split.test.labels);
  const auto float_result = lite::LiteInterpreter(float_model).run(split.test.features);
  const double float_acc = data::accuracy(
      std::vector<std::uint32_t>(float_result.classes.begin(), float_result.classes.end()),
      split.test.labels);
  std::printf("\naccuracy: float %.2f%% -> int8-on-TPU %.2f%%\n", 100.0 * float_acc,
              100.0 * int8_acc);
  std::printf("weight upload: %s; steady-state latency %s/sample "
              "(device %.0f%%, link %.0f%%, host %.0f%%)\n",
              upload.weight_upload.to_string().c_str(),
              (stats.total() * (1.0 / split.test.num_samples())).to_string().c_str(),
              100.0 * (stats.device_compute / stats.total()),
              100.0 * (stats.transfer / stats.total()),
              100.0 * (stats.host_compute / stats.total()));
  std::filesystem::remove(path);
  return 0;
}
