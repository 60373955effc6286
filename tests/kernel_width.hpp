#pragma once

// A test fixture parameterised over both compilations of the host kernels
// (tensor/kernels.hpp): the portable one and the AVX2 one. The AVX2 one
// exists only on x86-64 and runs only on a CPU with AVX2; elsewhere its half
// of every test skips with a message.

#include <gtest/gtest.h>

#include <string>

#include "tensor/kernels.hpp"

namespace hdc::tensor {

enum class KernelWidth { kPortable, kAvx2 };

inline std::string kernel_width_name(const ::testing::TestParamInfo<KernelWidth>& info) {
  return info.param == KernelWidth::kPortable ? "portable" : "avx2";
}

class KernelWidthTest : public ::testing::TestWithParam<KernelWidth> {
 protected:
  void SetUp() override {
    set_ = GetParam() == KernelWidth::kPortable ? &kernels::portable() : kernels::avx2();
    if (set_ == nullptr) {
      GTEST_SKIP() << "no AVX2 on this CPU or build: only the portable kernels run here";
    }
  }

  const kernels::KernelSet& kernel_set() const { return *set_; }

 private:
  const kernels::KernelSet* set_ = nullptr;
};

#define HDC_INSTANTIATE_KERNEL_WIDTHS(suite)                                           \
  INSTANTIATE_TEST_SUITE_P(Widths, suite,                                              \
                           ::testing::Values(::hdc::tensor::KernelWidth::kPortable,    \
                                             ::hdc::tensor::KernelWidth::kAvx2),       \
                           ::hdc::tensor::kernel_width_name)

}  // namespace hdc::tensor
