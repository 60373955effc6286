#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "kernel_width.hpp"
#include "lite/builder.hpp"
#include "lite/interpreter.hpp"
#include "lite/model.hpp"
#include "lite/quantize.hpp"
#include "lite/serialize.hpp"
#include "tensor/ops.hpp"

namespace hdc::lite {
namespace {

/// Small trained wide-NN float model plus the data it was trained on.
struct Fixture {
  core::TrainedClassifier classifier;
  data::Dataset train;
  data::Dataset test;
};

Fixture make_fixture(std::uint32_t dim = 512) {
  data::Dataset all = data::generate_synthetic(data::paper_dataset("PAMAP2"), 500);
  auto split = data::split_dataset(all, 0.25, 11);
  data::MinMaxNormalizer norm;
  norm.fit(split.train);
  norm.apply(split.train);
  norm.apply(split.test);

  core::HdConfig cfg;
  cfg.dim = dim;
  cfg.epochs = 6;
  core::Encoder encoder(static_cast<std::uint32_t>(split.train.num_features()), dim,
                        cfg.seed);
  const core::Trainer trainer(cfg);
  core::TrainResult result = trainer.fit(encoder, split.train);
  return Fixture{core::TrainedClassifier{std::move(encoder), std::move(result.model)},
                 std::move(split.train), std::move(split.test)};
}

// ---------------------------------------------------------------- model ----

TEST(LiteModelTest, DtypeSizes) {
  EXPECT_EQ(dtype_size(DType::kFloat32), 4U);
  EXPECT_EQ(dtype_size(DType::kInt8), 1U);
  EXPECT_EQ(dtype_size(DType::kInt32), 4U);
}

TEST(LiteModelTest, QuantizationRoundTripWithinHalfScale) {
  const Quantization q{0.05F, -10};
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float real = rng.uniform(-5.0F, 5.0F);
    const std::int8_t quantized = q.quantize(real);
    const float restored = q.dequantize(quantized);
    const float clamped = std::clamp(real, q.dequantize(-128), q.dequantize(127));
    EXPECT_LE(std::fabs(restored - clamped), q.scale * 0.5F + 1e-6F);
  }
}

TEST(LiteModelTest, QuantizeSaturates) {
  const Quantization q{0.01F, 0};
  EXPECT_EQ(q.quantize(100.0F), 127);
  EXPECT_EQ(q.quantize(-100.0F), -128);
}

TEST(LiteModelTest, DisabledQuantThrowsOnUse) {
  const Quantization q;
  EXPECT_FALSE(q.enabled());
  EXPECT_THROW(q.quantize(1.0F), Error);
}

TEST(LiteModelTest, BuilderProducesValidFloatModel) {
  const LiteModel model = LiteModelBuilder("m", 3)
                              .dense(tensor::MatrixF(3, 8, 0.5F))
                              .tanh()
                              .dense(tensor::MatrixF(8, 2, 0.25F))
                              .argmax()
                              .finish();
  EXPECT_NO_THROW(model.validate());
  EXPECT_FALSE(model.is_quantized());
  EXPECT_EQ(model.macs_per_sample(), 3U * 8U + 8U * 2U);
  EXPECT_EQ(model.weight_bytes(), (3 * 8 + 8 * 2) * sizeof(float));
  // The names every lowered model carries (the HDLT bytes pin them).
  std::vector<std::string> names;
  for (const LiteTensor& t : model.tensors) {
    names.push_back(t.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"input", "dense0/weights", "dense0/out", "tanh1/out",
                                             "dense1/weights", "dense1/out", "class"}));
  EXPECT_EQ(model.input, 0U);
  EXPECT_EQ(model.output, 6U);
}

TEST(LiteChainTest, DenseShapeChainEnforced) {
  LiteModelBuilder b("bad", 2);
  EXPECT_THROW(b.dense(tensor::MatrixF(3, 4)), Error);
  b.dense(tensor::MatrixF(2, 4)).tanh();
  EXPECT_THROW(b.dense(tensor::MatrixF(2, 1)), Error);
}

TEST(LiteChainTest, ArgMaxMustBeLast) {
  LiteModelBuilder b("bad", 2);
  b.dense(tensor::MatrixF(2, 4)).argmax();
  EXPECT_THROW(b.tanh(), Error);
  EXPECT_THROW(b.argmax(), Error);
  EXPECT_THROW(b.dense(tensor::MatrixF(1, 1)), Error);
  EXPECT_NO_THROW(b.finish());
}

TEST(LiteModelTest, ValidateCatchesDanglingIndices) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  b.set_input(in);
  b.set_output(in);
  b.add_op(OpCode::kTanh, {in}, {99});
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesShapeBreak) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto w = b.add_weights("w", tensor::MatrixF(5, 2));  // expects width 5
  const auto out = b.add_activation("out", DType::kFloat32, 2);
  b.add_op(OpCode::kFullyConnected, {in, w}, {out});
  b.set_input(in);
  b.set_output(out);
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesInt8WithoutQuant) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto q = b.add_activation("q", DType::kInt8, 4);  // missing quant params
  b.add_op(OpCode::kQuantize, {in}, {q});
  b.set_input(in);
  b.set_output(q);
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesArgMaxNotLast) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto cls = b.add_activation("cls", DType::kInt32, 1);
  const auto out = b.add_activation("out", DType::kFloat32, 4);
  b.add_op(OpCode::kArgMax, {in}, {cls});
  b.add_op(OpCode::kTanh, {in}, {out});
  b.set_input(in);
  b.set_output(out);
  EXPECT_THROW(b.finish(), Error);
}

TEST(LiteModelTest, ValidateCatchesWriteToConstant) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto w = b.add_weights("w", tensor::MatrixF(1, 4));
  b.add_op(OpCode::kTanh, {in}, {w});
  b.set_input(in);
  b.set_output(in);
  EXPECT_THROW(b.finish(), Error);
}

// ------------------------------------------------------------- wide NN ----

TEST(WideNnTest, EncodeGraphMatchesEncoder) {
  const Fixture fx = make_fixture();
  const core::Encoder& encoder = fx.classifier.encoder;
  const LiteModel model = build_encode_model(encoder);
  EXPECT_EQ(model.tensor(model.input).shape[0], encoder.num_features());
  EXPECT_EQ(model.tensor(model.output).shape[0], encoder.dim());

  tensor::MatrixF sample(1, encoder.num_features(), 0.3F);
  const auto via_model = LiteInterpreter(model).run(sample).values;
  const auto via_encoder = encoder.encode(sample.row(0));
  ASSERT_EQ(via_model.size(), via_encoder.size());
  for (std::size_t j = 0; j < via_model.size(); ++j) {
    EXPECT_NEAR(via_model.storage()[j], via_encoder[j], 1e-5F);
  }
}

TEST(WideNnTest, InferenceGraphMatchesAssociativeSearch) {
  // The central paper claim (Fig. 2): the 3-layer wide NN computes exactly
  // the HDC encode + associative search. With class normalization folded
  // into the weights the network ranks like the cosine similarity used
  // during training.
  const Fixture fx = make_fixture();
  const auto result = LiteInterpreter(build_inference_model(fx.classifier)).run(fx.test.features);
  ASSERT_TRUE(result.has_classes);
  for (std::size_t i = 0; i < fx.test.num_samples(); ++i) {
    const auto encoded = fx.classifier.encoder.encode(fx.test.features.row(i));
    const auto direct = fx.classifier.model.predict(encoded, core::Similarity::kCosine);
    EXPECT_EQ(static_cast<std::uint32_t>(result.classes[i]), direct) << i;
  }
}

TEST(WideNnTest, InferenceGraphShapes) {
  const Fixture fx = make_fixture();
  const core::TrainedClassifier& classifier = fx.classifier;
  const LiteModel model = build_inference_model(classifier);
  ASSERT_EQ(model.ops.back().code, OpCode::kArgMax);
  EXPECT_EQ(model.tensor(model.ops.back().inputs[0]).shape[0], classifier.num_classes());
  EXPECT_EQ(model.macs_per_sample(),
            static_cast<std::uint64_t>(classifier.num_features()) * classifier.dim() +
                static_cast<std::uint64_t>(classifier.dim()) * classifier.num_classes());
}

TEST(WideNnTest, LogitsEqualDotScores) {
  const Fixture fx = make_fixture();
  const core::TrainedClassifier& classifier = fx.classifier;
  const LiteModel model = LiteModelBuilder("logits", classifier.num_features())
                              .dense(classifier.encoder.base())
                              .tanh()
                              .dense(tensor::transpose(classifier.model.class_hypervectors()))
                              .finish();

  tensor::MatrixF sample(1, classifier.num_features(), 0.1F);
  const auto logits = LiteInterpreter(model).run(sample).values;
  const auto encoded = classifier.encoder.encode(sample.row(0));
  const auto scores = classifier.model.scores(encoded, core::Similarity::kDot);
  ASSERT_EQ(logits.size(), scores.size());
  for (std::size_t c = 0; c < scores.size(); ++c) {
    EXPECT_NEAR(logits.storage()[c], scores[c], 1e-3F * (1.0F + std::fabs(scores[c])));
  }
}

// ---------------------------------------------------------- interpreter ----

TEST(InterpreterTest, FloatModelMatchesGraphForward) {
  const Fixture fx = make_fixture(256);
  const LiteInterpreter interpreter(build_encode_model(fx.classifier.encoder));

  tensor::MatrixF inputs(3, fx.train.num_features());
  std::copy_n(fx.train.features.data(), inputs.size(), inputs.data());
  const auto result = interpreter.run(inputs);
  const auto expected = fx.classifier.encoder.encode_batch(inputs);
  ASSERT_TRUE(result.values.same_shape(expected));
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    EXPECT_NEAR(result.values.storage()[i], expected.storage()[i], 1e-4F);
  }
}

TEST(InterpreterTest, ArgMaxClassesMatchFloatLogits) {
  const Fixture fx = make_fixture(256);
  const LiteInterpreter interpreter(build_inference_model(fx.classifier));
  const auto result = interpreter.run(fx.test.features);
  ASSERT_TRUE(result.has_classes);
  const auto expected = fx.classifier.model.predict_batch(
      fx.classifier.encoder.encode_batch(fx.test.features), core::Similarity::kCosine);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint32_t>(result.classes[i]), expected[i]);
  }
}

// An ARG_MAX-terminated model returns the row ARG_MAX read: k class scores
// per sample (dequantized with that tensor's quantization for int8), and the
// class is the first maximum of that row.
TEST(InterpreterTest, ArgMaxModelReturnsTheScoresItPickedFrom) {
  const Fixture fx = make_fixture(128);
  const LiteModel float_model = build_inference_model(fx.classifier);
  const LiteModel int8_model = quantize_model(float_model, fx.train.features);
  for (const LiteModel* model : {&float_model, &int8_model}) {
    SCOPED_TRACE(model->name);
    ASSERT_EQ(model->ops.back().code, OpCode::kArgMax);
    // The same model cut before ARG_MAX outputs the scores themselves.
    LiteModel scores_model = *model;
    scores_model.ops.pop_back();
    scores_model.output = scores_model.ops.back().outputs[0];
    const LiteTensor& scores_tensor = model->tensor(scores_model.output);
    EXPECT_EQ(scores_tensor.dtype,
              model == &float_model ? DType::kFloat32 : DType::kInt8);

    const InferenceResult result = LiteInterpreter(*model).run(fx.test.features);
    const InferenceResult scores = LiteInterpreter(scores_model).run(fx.test.features);
    ASSERT_TRUE(result.has_classes);
    ASSERT_EQ(result.values.rows(), fx.test.num_samples());
    ASSERT_EQ(result.values.cols(), fx.train.num_classes);
    EXPECT_EQ(result.values, scores.values);
    for (std::size_t r = 0; r < result.values.rows(); ++r) {
      EXPECT_EQ(static_cast<std::size_t>(result.classes[r]),
                tensor::argmax(result.values.row(r)))
          << r;
    }
  }
}

TEST(InterpreterTest, WrongInputWidthThrows) {
  const LiteInterpreter interpreter(LiteModelBuilder("m", 4).tanh().finish());
  EXPECT_THROW(interpreter.run(tensor::MatrixF(1, 3)), Error);
}

TEST(InterpreterTest, DenseChainRejectsWrongWidth) {
  const LiteInterpreter interpreter(
      LiteModelBuilder("m", 4).dense(tensor::MatrixF(4, 3, 0.5F)).tanh().finish());
  EXPECT_THROW(interpreter.run(tensor::MatrixF(1, 3)), Error);
  EXPECT_THROW(interpreter.run(tensor::MatrixF(1, 5)), Error);
  EXPECT_NO_THROW(interpreter.run(tensor::MatrixF(1, 4)));
}

TEST(InterpreterTest, CalibrationTracksRanges) {
  // out = 2a + b
  const LiteModel model = LiteModelBuilder("m", 2).dense(tensor::MatrixF{{2.0F}, {1.0F}}).finish();
  const LiteInterpreter interpreter(model);
  tensor::MatrixF inputs{{1.0F, 0.0F}, {0.0F, -3.0F}, {2.0F, 2.0F}};
  const auto ranges = interpreter.calibrate(inputs);
  // Output tensor is the model output; values were {2, -3, 6}.
  const auto& out_range = ranges[model.output];
  ASSERT_TRUE(out_range.seen);
  EXPECT_FLOAT_EQ(out_range.min, -3.0F);
  EXPECT_FLOAT_EQ(out_range.max, 6.0F);
}

TEST(InterpreterTest, CalibrateOnQuantizedModelThrows) {
  const Fixture fx = make_fixture(128);
  const LiteModel float_model =
      build_encode_model(fx.classifier.encoder);
  const LiteModel quantized = quantize_model(float_model, fx.train.features);
  const LiteInterpreter interpreter(quantized);
  EXPECT_THROW(interpreter.calibrate(fx.train.features), Error);
}

TEST(InterpreterTest, BatchedCalibrationEqualsPerRowRanges) {
  const Fixture fx = make_fixture(256);
  const LiteModel model = build_inference_model(fx.classifier);
  const LiteInterpreter interpreter(model);
  // 150 rows span three row blocks, the last one partial.
  tensor::MatrixF inputs(150, fx.train.num_features());
  std::copy_n(fx.train.features.data(), inputs.size(), inputs.data());
  const std::vector<TensorRange> batched = interpreter.calibrate(inputs);

  std::vector<TensorRange> per_row(model.tensors.size());
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    tensor::MatrixF one(1, inputs.cols());
    std::copy_n(inputs.row(r).data(), inputs.cols(), one.data());
    const std::vector<TensorRange> ranges = interpreter.calibrate(one);
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      if (ranges[t].seen) {
        per_row[t].update(ranges[t].min);
        per_row[t].update(ranges[t].max);
      }
    }
  }
  ASSERT_EQ(batched.size(), per_row.size());
  for (std::size_t t = 0; t < batched.size(); ++t) {
    EXPECT_EQ(batched[t].seen, per_row[t].seen) << "tensor " << t;
    EXPECT_EQ(batched[t].min, per_row[t].min) << "tensor " << t;
    EXPECT_EQ(batched[t].max, per_row[t].max) << "tensor " << t;
  }
}

/// The row-by-row int8 FULLY_CONNECTED accumulation the packed kernel
/// replaces: zero-point-corrected inputs times row-major weights in int32.
tensor::MatrixI32 unpacked_fc_i8(const tensor::MatrixI8& x, std::int32_t zero_point,
                                 const tensor::MatrixI8& w) {
  tensor::MatrixI32 acc(x.rows(), w.cols(), 0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < w.rows(); ++i) {
      const std::int32_t xi = static_cast<std::int32_t>(x(r, i)) - zero_point;
      if (xi == 0) {
        continue;
      }
      for (std::size_t j = 0; j < w.cols(); ++j) {
        acc(r, j) += xi * static_cast<std::int32_t>(w(i, j));
      }
    }
  }
  return acc;
}

tensor::MatrixI8 random_i8(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  tensor::MatrixI8 m(rows, cols);
  Rng rng(seed);
  for (auto& v : m.storage()) {
    v = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.next_below(256)) - 128);
  }
  return m;
}

TEST(PackedFcTest, EqualsUnpackedLoopIncludingExtremeZeroPoints) {
  for (const std::size_t k : {27U, 561U, 2048U}) {
    for (const std::size_t rows : {1U, 3U, 4U, 9U}) {
      for (const std::int32_t zero_point : {-128, 0, 127}) {
        tensor::MatrixI8 x = random_i8(rows, k, k + rows);
        tensor::MatrixI8 w = random_i8(k, 130, k * 3 + 1);
        // Extremes: x = -128 against zp = 127 gives the widest input
        // (-255), and w = -128 the widest weight.
        for (std::size_t i = 0; i < k; i += 5) {
          x(0, i) = -128;
          w(i, 0) = -128;
          w(i, 129) = -128;
        }
        const auto packed =
            tensor::pack_weights_i8({w.data(), w.size()}, w.rows(), w.cols());
        ASSERT_EQ(tensor::matmul_i8_packed(x, zero_point, packed),
                  unpacked_fc_i8(x, zero_point, w))
            << "k=" << k << " rows=" << rows << " zp=" << zero_point;
      }
    }
  }
}

TEST(PackedFcTest, SaturatedInputsReachExactInt32Extremes) {
  // Every term is (-128 - 127) * -128 = 32640: the sum must be exact.
  tensor::MatrixI8 x(5, 2048, static_cast<std::int8_t>(-128));
  tensor::MatrixI8 w(2048, 3, static_cast<std::int8_t>(-128));
  const auto packed = tensor::pack_weights_i8({w.data(), w.size()}, w.rows(), w.cols());
  const tensor::MatrixI32 acc = tensor::matmul_i8_packed(x, 127, packed);
  for (const std::int32_t v : acc.storage()) {
    EXPECT_EQ(v, 2048 * 32640);
  }
}

TEST(PackedFcTest, ZeroPointOutsideInt8Rejected) {
  const tensor::MatrixI8 x(1, 4);
  const tensor::MatrixI8 w(4, 2);
  const auto packed = tensor::pack_weights_i8({w.data(), w.size()}, 4, 2);
  EXPECT_THROW(tensor::matmul_i8_packed(x, 128, packed), Error);
  EXPECT_THROW(tensor::matmul_i8_packed(x, -129, packed), Error);
}

// The packed int8 FC kernel of each instantiation, over the same extremes
// as EqualsUnpackedLoopIncludingExtremeZeroPoints, in two row ranges.
class PackedFcWidthTest : public tensor::KernelWidthTest {};

TEST_P(PackedFcWidthTest, EqualsUnpackedLoopIncludingExtremeZeroPoints) {
  const tensor::kernels::KernelSet& kernels = kernel_set();
  for (const std::size_t k : {27U, 561U, 2048U}) {
    for (const std::size_t rows : {1U, 3U, 4U, 9U}) {
      for (const std::int32_t zero_point : {-128, 0, 127}) {
        tensor::MatrixI8 x = random_i8(rows, k, k + rows);
        tensor::MatrixI8 w = random_i8(k, 130, k * 3 + 1);
        for (std::size_t i = 0; i < k; i += 5) {
          x(0, i) = -128;
          w(i, 0) = -128;
          w(i, 129) = -128;
        }
        const auto packed =
            tensor::pack_weights_i8({w.data(), w.size()}, w.rows(), w.cols());
        tensor::MatrixI32 acc(rows, w.cols(), 0);
        kernels.matmul_i8_packed_rows(x, zero_point, packed, acc, 0, 1);
        kernels.matmul_i8_packed_rows(x, zero_point, packed, acc, 1, rows);
        ASSERT_EQ(acc, unpacked_fc_i8(x, zero_point, w))
            << "k=" << k << " rows=" << rows << " zp=" << zero_point;
      }
    }
  }
}

TEST_P(PackedFcWidthTest, SaturatedInputsReachExactInt32Extremes) {
  const tensor::MatrixI8 x(5, 2048, static_cast<std::int8_t>(-128));
  const tensor::MatrixI8 w(2048, 3, static_cast<std::int8_t>(-128));
  const auto packed = tensor::pack_weights_i8({w.data(), w.size()}, w.rows(), w.cols());
  tensor::MatrixI32 acc(5, 3, 0);
  kernel_set().matmul_i8_packed_rows(x, 127, packed, acc, 0, 5);
  for (const std::int32_t v : acc.storage()) {
    EXPECT_EQ(v, 2048 * 32640);
  }
}

HDC_INSTANTIATE_KERNEL_WIDTHS(PackedFcWidthTest);

/// The interpreter's requantisation before the vector kernel, kept as the
/// reference: std::round of the double product, plus the zero point,
/// clamped to int8.
std::int8_t requantize_reference(std::int32_t acc, double multiplier, double scale,
                                 std::int32_t zero_point) {
  const double scaled = std::round(static_cast<double>(acc) * multiplier * scale) + zero_point;
  return static_cast<std::int8_t>(std::clamp(scaled, -128.0, 127.0));
}

class RequantizeWidthTest : public tensor::KernelWidthTest {};

// About 10M elements per instantiation: column scales 2^e * [1, 2) for every
// e in [-30, 10], exact powers of two on every third column, five
// multipliers and five zero points, against accumulators of four kinds —
// the int32 extremes and their neighbours, uniform int32, values whose
// product lands in [-600, 600] where rounding and clamping decide, and exact
// halves k + 0.5 (with their +-1 neighbours) planted on the power-of-two
// columns. 37 columns leave a scalar tail on every row.
TEST_P(RequantizeWidthTest, EqualsStdRoundLoopOnEveryAccumulator) {
  const tensor::kernels::KernelSet& kernels = kernel_set();
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kCols = 37;
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  const std::int32_t extremes[] = {kMin, kMin + 1, kMin + 2, kMax, kMax - 1, kMax - 2,
                                   0,    1,        -1,       2,    -2,       1 << 30};
  Rng rng(21);
  std::uint64_t cases = 0;
  std::uint64_t mismatches = 0;
  std::string first;
  for (int e = -30; e <= 10; ++e) {
    std::vector<double> scales(kCols);
    for (std::size_t j = 0; j < kCols; ++j) {
      scales[j] = std::ldexp(j % 3 == 0 ? 1.0 : 1.0 + rng.next_double(), e);
    }
    for (const double multiplier : {1.0, 0.5, 0.01 / 40.0, 0.3, 1.7e-3}) {
      // Accumulators whose product lands near +-600 for this multiplier.
      const auto near_range = [&](double scale) {
        const double p = (rng.next_double() * 2.0 - 1.0) * 600.0 / (multiplier * scale);
        return static_cast<std::int32_t>(std::clamp(p, -2147483648.0, 2147483647.0));
      };
      tensor::MatrixI32 acc(kRows, kCols);
      for (std::size_t r = 0; r < kRows; ++r) {
        for (std::size_t j = 0; j < kCols; ++j) {
          std::int32_t& a = acc(r, j);
          switch (r % 4) {
            case 0:
              a = extremes[(r / 4 + j) % std::size(extremes)];
              break;
            case 1:
              a = static_cast<std::int32_t>(static_cast<std::uint32_t>(rng.next_below(1ULL << 32)));
              break;
            case 2:
              a = near_range(scales[j]);
              break;
            default: {
              // k + 0.5 = a * multiplier * 2^e exactly when multiplier is a
              // power of two and the shift keeps `a` an int32 integer.
              const int shift = -e + (multiplier == 0.5 ? 1 : 0);
              if (j % 3 == 0 && (multiplier == 1.0 || multiplier == 0.5) && shift >= 1 &&
                  shift <= 21) {
                const auto half = static_cast<std::int64_t>(rng.next_below(601)) - 300;
                const std::int64_t planted = (2 * half + 1) << (shift - 1);
                a = static_cast<std::int32_t>(planted + static_cast<std::int64_t>(r % 3) - 1);
              } else {
                a = near_range(scales[j]);
              }
            }
          }
        }
      }
      for (const std::int32_t zero_point : {-128, 0, 127, -3, 42}) {
        tensor::MatrixI8 out(kRows, kCols);
        kernels.requantize_i8(acc, multiplier, scales, zero_point, out);
        for (std::size_t r = 0; r < kRows; ++r) {
          for (std::size_t j = 0; j < kCols; ++j) {
            ++cases;
            const std::int8_t want =
                requantize_reference(acc(r, j), multiplier, scales[j], zero_point);
            if (out(r, j) != want && mismatches++ == 0) {
              first = "acc=" + std::to_string(acc(r, j)) + " multiplier=" +
                      std::to_string(multiplier) + " scale=2^" + std::to_string(e) +
                      " zp=" + std::to_string(zero_point);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0U) << "of " << cases << "; first: " << first;
}

HDC_INSTANTIATE_KERNEL_WIDTHS(RequantizeWidthTest);

TEST(RequantizeTest, RejectsMismatchedShapesAndZeroPoints) {
  const tensor::MatrixI32 acc(2, 3);
  const std::vector<double> scales(3, 1.0);
  tensor::MatrixI8 out(2, 3);
  EXPECT_NO_THROW(tensor::requantize_i8(acc, 1.0, scales, 0, out));
  EXPECT_THROW(tensor::requantize_i8(acc, 1.0, scales, 128, out), Error);
  EXPECT_THROW(tensor::requantize_i8(acc, 1.0, scales, -129, out), Error);
  EXPECT_THROW(tensor::requantize_i8(acc, 1.0, std::vector<double>(2, 1.0), 0, out), Error);
  tensor::MatrixI8 wrong(3, 3);
  EXPECT_THROW(tensor::requantize_i8(acc, 1.0, scales, 0, wrong), Error);
}

TEST(PackedFcTest, InterpreterMatchesRowByRowReferenceAtExtremes) {
  // Hand-built int8 model: QUANTIZE (zp 127, so negative inputs saturate to
  // -128) -> FULLY_CONNECTED with -128 weights -> output. The interpreter
  // must reproduce the row-by-row accumulation and requantization exactly.
  constexpr std::uint32_t kIn = 27;
  constexpr std::uint32_t kOut = 19;
  const Quantization in_quant{0.01F, 127};
  const Quantization out_quant{40.0F, -3};
  tensor::MatrixI8 w = random_i8(kIn, kOut, 5);
  for (std::size_t i = 0; i < kIn; i += 2) {
    w(i, 0) = -128;
  }
  const Quantization w_quant{0.02F, 0};
  LiteModelBuilder b("extreme");
  const std::uint32_t input = b.add_activation("in", DType::kFloat32, kIn);
  const std::uint32_t q = b.add_activation("in_q", DType::kInt8, kIn, in_quant);
  const std::uint32_t weights = b.add_weights_i8("w", w, w_quant);
  const std::uint32_t out = b.add_activation("out_q", DType::kInt8, kOut, out_quant);
  b.add_op(OpCode::kQuantize, {input}, {q});
  b.add_op(OpCode::kFullyConnected, {q, weights}, {out});
  b.set_input(input);
  b.set_output(out);
  const LiteModel model = b.finish();

  // 70 rows: several 4-row groups plus a tail, within one row block.
  tensor::MatrixF inputs(70, kIn);
  Rng rng(6);
  for (auto& v : inputs.storage()) {
    v = rng.uniform(-5.0F, 0.5F);  // mostly saturating at -128
  }
  const InferenceResult result = LiteInterpreter(model).run(inputs);

  tensor::MatrixI8 xq(inputs.rows(), kIn);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    xq.storage()[i] = in_quant.quantize(inputs.storage()[i]);
  }
  const tensor::MatrixI32 acc = unpacked_fc_i8(xq, in_quant.zero_point, w);
  const double in_over_out =
      static_cast<double>(in_quant.scale) / static_cast<double>(out_quant.scale);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    for (std::size_t j = 0; j < kOut; ++j) {
      const double scaled =
          std::round(static_cast<double>(acc(r, j)) * in_over_out *
                     static_cast<double>(w_quant.scale)) +
          out_quant.zero_point;
      const auto y = static_cast<std::int8_t>(std::clamp(scaled, -128.0, 127.0));
      ASSERT_EQ(result.values(r, j), out_quant.dequantize(y)) << r << "," << j;
    }
  }
}

// ------------------------------------------------------------- quantize ----

TEST(QuantizeTest, ActivationQuantCoversRange) {
  const Quantization q = choose_activation_quant(-2.0F, 6.0F);
  EXPECT_TRUE(q.enabled());
  // Range endpoints should be representable within half a scale step.
  EXPECT_NEAR(q.dequantize(q.quantize(-2.0F)), -2.0F, q.scale);
  EXPECT_NEAR(q.dequantize(q.quantize(6.0F)), 6.0F, q.scale);
}

TEST(QuantizeTest, ActivationQuantIncludesZeroExactly) {
  const Quantization q = choose_activation_quant(0.5F, 6.0F);  // min > 0 widened to 0
  EXPECT_EQ(q.dequantize(q.quantize(0.0F)), 0.0F);
}

TEST(QuantizeTest, DegenerateRangeStillValid) {
  const Quantization q = choose_activation_quant(0.0F, 0.0F);
  EXPECT_TRUE(q.enabled());
}

TEST(QuantizeTest, SymmetricWeightsHaveZeroPointZero) {
  tensor::MatrixF w{{-1.0F, 0.5F}, {0.25F, 2.0F}};
  const QuantizedWeights qw = quantize_weights_symmetric(w);
  EXPECT_EQ(qw.quant.zero_point, 0);
  EXPECT_FLOAT_EQ(qw.quant.scale, 2.0F / 127.0F);
  EXPECT_EQ(qw.values(1, 1), 127);
  EXPECT_EQ(qw.values(0, 0), -64);  // round(-1 / (2/127)) = -64 (half-away rounding)
}

TEST(QuantizeTest, WeightRoundTripErrorBounded) {
  Rng rng(5);
  tensor::MatrixF w(16, 16);
  rng.fill_gaussian(w.data(), w.size());
  const QuantizedWeights qw = quantize_weights_symmetric(w);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const float restored = qw.quant.dequantize(qw.values.storage()[i]);
    EXPECT_LE(std::fabs(restored - w.storage()[i]), qw.quant.scale * 0.5F + 1e-6F);
  }
}

TEST(QuantizeTest, QuantizedModelStructure) {
  const Fixture fx = make_fixture(128);
  const LiteModel float_model =
      build_inference_model(fx.classifier);
  const LiteModel quantized = quantize_model(float_model, fx.train.features);
  EXPECT_NO_THROW(quantized.validate());
  EXPECT_TRUE(quantized.is_quantized());
  EXPECT_EQ(quantized.ops.front().code, OpCode::kQuantize);
  EXPECT_EQ(quantized.ops.back().code, OpCode::kArgMax);
  // int8 weights: n*d + d*k bytes.
  EXPECT_EQ(quantized.weight_bytes(),
            fx.train.num_features() * 128 + 128 * fx.train.num_classes);
}

TEST(QuantizeTest, QuantizedAccuracyCloseToFloat) {
  const Fixture fx = make_fixture(512);
  const LiteModel float_model =
      build_inference_model(fx.classifier);
  const LiteModel quantized = quantize_model(float_model, fx.train.features);

  const LiteInterpreter float_interp(float_model);
  const LiteInterpreter int8_interp(quantized);
  const auto float_result = float_interp.run(fx.test.features);
  const auto int8_result = int8_interp.run(fx.test.features);

  std::size_t agree = 0;
  for (std::size_t i = 0; i < fx.test.num_samples(); ++i) {
    agree += float_result.classes[i] == int8_result.classes[i] ? 1 : 0;
  }
  const double agreement =
      static_cast<double>(agree) / static_cast<double>(fx.test.num_samples());
  EXPECT_GT(agreement, 0.9) << "int8 quantization changed too many predictions";
}

TEST(QuantizeTest, TanhLutMonotonicNonDecreasing) {
  const Fixture fx = make_fixture(64);
  const LiteModel quantized = quantize_model(
      build_encode_model(fx.classifier.encoder),
      fx.train.features);
  // Drive the whole int8 input range through the quantized model's tanh by
  // checking the LUT contract indirectly: tanh output quant is 1/128.
  for (const auto& t : quantized.tensors) {
    if (t.name.find("tanh") != std::string::npos) {
      EXPECT_FLOAT_EQ(t.quant.scale, 1.0F / 128.0F);
      EXPECT_EQ(t.quant.zero_point, 0);
    }
  }
}

TEST(QuantizeTest, DequantizeOutputOptionAppendsOp) {
  const Fixture fx = make_fixture(64);
  QuantizeOptions options;
  options.dequantize_output = true;
  const LiteModel quantized = quantize_model(
      build_encode_model(fx.classifier.encoder),
      fx.train.features, options);
  EXPECT_EQ(quantized.ops.back().code, OpCode::kDequantize);
  EXPECT_EQ(quantized.tensor(quantized.output).dtype, DType::kFloat32);
}

TEST(QuantizeTest, AlreadyQuantizedRejected) {
  const Fixture fx = make_fixture(64);
  const LiteModel quantized = quantize_model(
      build_encode_model(fx.classifier.encoder),
      fx.train.features);
  EXPECT_THROW(quantize_model(quantized, fx.train.features), Error);
}

TEST(QuantizeTest, EncodeOutputsCloseToFloatEncodings) {
  const Fixture fx = make_fixture(256);
  const LiteModel quantized = quantize_model(
      build_encode_model(fx.classifier.encoder),
      fx.train.features);
  const LiteInterpreter interpreter(quantized);

  tensor::MatrixF inputs(8, fx.train.num_features());
  std::copy_n(fx.train.features.data(), inputs.size(), inputs.data());
  const auto int8_result = interpreter.run(inputs);  // dequantized int8 encodings
  const auto float_encodings = fx.classifier.encoder.encode_batch(inputs);

  double err = 0.0;
  for (std::size_t i = 0; i < int8_result.values.size(); ++i) {
    err += std::fabs(int8_result.values.storage()[i] - float_encodings.storage()[i]);
  }
  err /= static_cast<double>(int8_result.values.size());
  // tanh output scale is 1/128 ~ 0.0078; the quantized input and base add a
  // little more noise. Mean absolute error should stay in that ballpark.
  EXPECT_LT(err, 0.05);
}

// ------------------------------------------------------- per-channel -------

TEST(PerChannelTest, EachChannelGetsItsOwnScale) {
  // Column 0 has tiny weights, column 1 huge ones: per-tensor quantization
  // would crush column 0 to a couple of codes; per-channel keeps both sharp.
  tensor::MatrixF w{{0.001F, 100.0F}, {-0.002F, -50.0F}};
  const auto qw = quantize_weights_per_channel(w);
  ASSERT_EQ(qw.channel_scales.size(), 2U);
  EXPECT_FLOAT_EQ(qw.channel_scales[0], 0.002F / 127.0F);
  EXPECT_FLOAT_EQ(qw.channel_scales[1], 100.0F / 127.0F);
  EXPECT_EQ(qw.values(0, 1), 127);
  EXPECT_EQ(qw.values(1, 0), -127);
}

TEST(PerChannelTest, RoundTripErrorBoundedPerChannel) {
  Rng rng(21);
  tensor::MatrixF w(32, 8);
  for (std::size_t j = 0; j < 8; ++j) {
    const float magnitude = std::pow(10.0F, static_cast<float>(j) - 4.0F);
    for (std::size_t i = 0; i < 32; ++i) {
      w(i, j) = rng.gaussian(0.0F, magnitude);
    }
  }
  const auto qw = quantize_weights_per_channel(w);
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t i = 0; i < 32; ++i) {
      const float restored = qw.channel_scales[j] * qw.values(i, j);
      EXPECT_LE(std::fabs(restored - w(i, j)), qw.channel_scales[j] * 0.5F + 1e-9F);
    }
  }
}

TEST(PerChannelTest, ModelValidatesAndRuns) {
  const Fixture fx = make_fixture(256);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel quantized = quantize_model(
      build_inference_model(fx.classifier), fx.train.features,
      options);
  EXPECT_NO_THROW(quantized.validate());
  bool saw_per_channel = false;
  for (const auto& t : quantized.tensors) {
    saw_per_channel |= t.per_channel();
  }
  EXPECT_TRUE(saw_per_channel);
  const auto result = LiteInterpreter(quantized).run(fx.test.features);
  EXPECT_EQ(result.classes.size(), fx.test.num_samples());
}

TEST(PerChannelTest, AtLeastAsAccurateAsPerTensor) {
  const Fixture fx = make_fixture(512);
  const auto float_model = build_inference_model(fx.classifier);

  const LiteModel per_tensor = quantize_model(float_model, fx.train.features);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel per_channel = quantize_model(float_model, fx.train.features, options);

  const auto float_ref = LiteInterpreter(float_model).run(fx.test.features);
  const auto pt = LiteInterpreter(per_tensor).run(fx.test.features);
  const auto pc = LiteInterpreter(per_channel).run(fx.test.features);

  std::size_t pt_agree = 0;
  std::size_t pc_agree = 0;
  for (std::size_t i = 0; i < fx.test.num_samples(); ++i) {
    pt_agree += pt.classes[i] == float_ref.classes[i] ? 1 : 0;
    pc_agree += pc.classes[i] == float_ref.classes[i] ? 1 : 0;
  }
  // Per-channel must track the float model at least as closely (allow a
  // one-sample wobble from rounding).
  EXPECT_GE(pc_agree + 1, pt_agree);
}

TEST(PerChannelTest, SerializationPreservesChannelScales) {
  const Fixture fx = make_fixture(128);
  QuantizeOptions options;
  options.per_channel_weights = true;
  const LiteModel quantized = quantize_model(
      build_encode_model(fx.classifier.encoder),
      fx.train.features, options);
  const LiteModel restored = deserialize_model(serialize_model(quantized));
  for (std::size_t i = 0; i < quantized.tensors.size(); ++i) {
    EXPECT_EQ(restored.tensors[i].channel_scales, quantized.tensors[i].channel_scales);
  }
  const auto a = LiteInterpreter(quantized).run(fx.test.features);
  const auto b = LiteInterpreter(restored).run(fx.test.features);
  EXPECT_EQ(a.values, b.values);
}

TEST(PerChannelTest, ValidateRejectsWrongScaleCount) {
  LiteModelBuilder b("bad");
  const auto in = b.add_activation("in", DType::kFloat32, 4);
  const auto in_q = b.add_activation("in_q", DType::kInt8, 4, Quantization{0.01F, 0});
  b.add_op(OpCode::kQuantize, {in}, {in_q});
  const auto w = b.add_weights_i8_per_channel("w", tensor::MatrixI8(4, 3),
                                              {0.1F, 0.2F, 0.3F});
  auto model_builder_finish = [&]() {
    const auto out = b.add_activation("out", DType::kInt8, 3, Quantization{0.01F, 0});
    b.add_op(OpCode::kFullyConnected, {in_q, w}, {out});
    b.set_input(in);
    b.set_output(out);
    return b.finish();
  };
  LiteModel model = model_builder_finish();
  model.tensors[2].channel_scales.pop_back();  // corrupt: 2 scales for 3 channels
  EXPECT_THROW(model.validate(), Error);
}

// ------------------------------------------------------------ serialize ----

TEST(LiteSerializeTest, RoundTripFloatModel) {
  const Fixture fx = make_fixture(64);
  const LiteModel model = build_inference_model(fx.classifier);
  const auto bytes = serialize_model(model);
  const LiteModel restored = deserialize_model(bytes);
  EXPECT_EQ(restored.name, model.name);
  ASSERT_EQ(restored.tensors.size(), model.tensors.size());
  for (std::size_t i = 0; i < model.tensors.size(); ++i) {
    EXPECT_EQ(restored.tensors[i].name, model.tensors[i].name);
    EXPECT_EQ(restored.tensors[i].shape, model.tensors[i].shape);
    EXPECT_EQ(restored.tensors[i].data, model.tensors[i].data);
  }
  ASSERT_EQ(restored.ops.size(), model.ops.size());
  for (std::size_t i = 0; i < model.ops.size(); ++i) {
    EXPECT_EQ(restored.ops[i].code, model.ops[i].code);
    EXPECT_EQ(restored.ops[i].inputs, model.ops[i].inputs);
  }
}

TEST(LiteSerializeTest, RoundTripQuantizedModelPreservesQuant) {
  const Fixture fx = make_fixture(64);
  const LiteModel quantized = quantize_model(
      build_encode_model(fx.classifier.encoder),
      fx.train.features);
  const LiteModel restored = deserialize_model(serialize_model(quantized));
  for (std::size_t i = 0; i < quantized.tensors.size(); ++i) {
    EXPECT_EQ(restored.tensors[i].quant.scale, quantized.tensors[i].quant.scale);
    EXPECT_EQ(restored.tensors[i].quant.zero_point,
              quantized.tensors[i].quant.zero_point);
  }
}

TEST(LiteSerializeTest, RestoredModelProducesSameOutputs) {
  const Fixture fx = make_fixture(128);
  const LiteModel quantized = quantize_model(
      build_inference_model(fx.classifier), fx.train.features);
  const LiteModel restored = deserialize_model(serialize_model(quantized));
  const auto a = LiteInterpreter(quantized).run(fx.test.features);
  const auto b = LiteInterpreter(restored).run(fx.test.features);
  EXPECT_EQ(a.classes, b.classes);
}

TEST(LiteSerializeTest, CorruptionDetected) {
  const Fixture fx = make_fixture(64);
  auto bytes = serialize_model(
      build_encode_model(fx.classifier.encoder));
  bytes[bytes.size() / 3] ^= 0x40;
  EXPECT_THROW(deserialize_model(bytes), Error);
}

TEST(LiteSerializeTest, TruncationDetected) {
  const Fixture fx = make_fixture(64);
  auto bytes = serialize_model(
      build_encode_model(fx.classifier.encoder));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_model(bytes), Error);
}

TEST(LiteSerializeTest, WrongMagicDetected) {
  std::vector<std::uint8_t> bytes(128, 0x5A);
  EXPECT_THROW(deserialize_model(bytes), Error);
}

TEST(LiteSerializeTest, FileRoundTrip) {
  const Fixture fx = make_fixture(64);
  const LiteModel model =
      build_encode_model(fx.classifier.encoder);
  const auto path =
      (std::filesystem::temp_directory_path() / "hdc_lite_test.hdlt").string();
  save_model(model, path);
  const LiteModel restored = load_model(path);
  EXPECT_EQ(restored.name, model.name);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace hdc::lite
