/**
 * @file
 * Tensor shape type shared by the tensor substrate and the graph IR.
 */
#ifndef CIMMLC_TENSOR_SHAPE_H
#define CIMMLC_TENSOR_SHAPE_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace cimmlc {

/**
 * Dense tensor shape. Layout conventions across the stack:
 *  - activations: NCHW
 *  - convolution weights: OIHW
 *  - linear weights: [out_features, in_features]
 */
class TensorShape
{
  public:
    TensorShape() = default;
    TensorShape(std::initializer_list<std::int64_t> dims) : dims_(dims) {}
    explicit TensorShape(std::vector<std::int64_t> dims)
        : dims_(std::move(dims))
    {
    }

    int rank() const { return static_cast<int>(dims_.size()); }

    /** Inline: the tensor element accessors call it per element, so an
     * out-of-line call would dominate the reference and funcsim loops. */
    std::int64_t dim(int i) const
    {
        if (i < 0 || i >= rank())
            failDim(i);
        return dims_[static_cast<std::size_t>(i)];
    }

    const std::vector<std::int64_t> &dims() const { return dims_; }

    /** Total element count; 1 for rank-0. */
    std::int64_t numel() const;

    /** True when every dimension is positive. */
    bool isValid() const;

    /** Renders like "[1, 3, 32, 32]". */
    std::string toString() const;

    bool operator==(const TensorShape &other) const
    {
        return dims_ == other.dims_;
    }
    bool operator!=(const TensorShape &other) const
    {
        return !(*this == other);
    }

  private:
    /** Aborts with the out-of-range CHECK message. */
    [[noreturn]] void failDim(int i) const;

    std::vector<std::int64_t> dims_;
};

/** Output spatial size of a convolution/pool window sweep. */
std::int64_t convOutDim(std::int64_t in, std::int64_t kernel,
                        std::int64_t stride, std::int64_t padding);

/** Output shape of conv2d over NCHW input with OIHW weight. */
TensorShape conv2dOutputShape(const TensorShape &input,
                              const TensorShape &weight,
                              std::int64_t stride, std::int64_t padding);

/** Output shape of 2-d pooling over NCHW input. */
TensorShape pool2dOutputShape(const TensorShape &input, std::int64_t kernel,
                              std::int64_t stride, std::int64_t padding);

} // namespace cimmlc

#endif // CIMMLC_TENSOR_SHAPE_H
