#include "tensor/shape.h"

#include "common/logging.h"
#include "common/strutil.h"

namespace cimmlc {

void
TensorShape::failDim(int i) const
{
    detail::checkFailed(__FILE__, __LINE__, "i >= 0 && i < rank()",
                        strformat("dim index %d out of range for rank %d", i,
                                  rank()));
}

std::int64_t
TensorShape::numel() const
{
    std::int64_t total = 1;
    for (std::int64_t d : dims_)
        total *= d;
    return total;
}

bool
TensorShape::isValid() const
{
    for (std::int64_t d : dims_) {
        if (d <= 0)
            return false;
    }
    return true;
}

std::string
TensorShape::toString() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(dims_[i]);
    }
    out += "]";
    return out;
}

std::int64_t
convOutDim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
           std::int64_t padding)
{
    return (in + 2 * padding - kernel) / stride + 1;
}

TensorShape
conv2dOutputShape(const TensorShape &input, const TensorShape &weight,
                  std::int64_t stride, std::int64_t padding)
{
    CIMMLC_CHECK_EQ(input.rank(), 4) << "conv2d input must be NCHW";
    CIMMLC_CHECK_EQ(weight.rank(), 4) << "conv2d weight must be OIHW";
    CIMMLC_CHECK_EQ(input.dim(1), weight.dim(1))
        << "channel mismatch: input " << input.toString() << " weight "
        << weight.toString();
    return TensorShape({input.dim(0), weight.dim(0),
                        convOutDim(input.dim(2), weight.dim(2), stride,
                                   padding),
                        convOutDim(input.dim(3), weight.dim(3), stride,
                                   padding)});
}

TensorShape
pool2dOutputShape(const TensorShape &input, std::int64_t kernel,
                  std::int64_t stride, std::int64_t padding)
{
    CIMMLC_CHECK_EQ(input.rank(), 4) << "pool2d input must be NCHW";
    return TensorShape({input.dim(0), input.dim(1),
                        convOutDim(input.dim(2), kernel, stride, padding),
                        convOutDim(input.dim(3), kernel, stride, padding)});
}

} // namespace cimmlc
