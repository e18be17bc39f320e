/**
 * @file
 * Minimal dense N-dimensional tensor used throughout the library.
 *
 * Row-major layout; the last dimension is contiguous. Activation
 * tensors use NHWC so that the channel dimension (the DBB blocking
 * dimension, paper Fig. 5) is contiguous in memory.
 */

#ifndef S2TA_TENSOR_TENSOR_HH
#define S2TA_TENSOR_TENSOR_HH

#include <cstdint>
#include <numeric>
#include <vector>

#include "base/logging.hh"

namespace s2ta {

/**
 * Dense row-major tensor of element type T.
 *
 * Deliberately simple: owning storage, no views, no broadcasting.
 * The simulators operate on raw spans of this storage in hot loops.
 */
template <typename T>
class Tensor
{
  public:
    Tensor() = default;

    /** Construct with a shape, filled with @p init. */
    explicit Tensor(std::vector<int> shape_, T init = T{})
        : shp(std::move(shape_))
    {
        buf.assign(static_cast<size_t>(elements(shp)), init);
        computeStrides();
    }

    /** Construct with a shape, adopting @p data (row-major, exactly
     *  the shape's element count) without copying it. */
    Tensor(std::vector<int> shape_, std::vector<T> &&data)
        : shp(std::move(shape_)), buf(std::move(data))
    {
        s2ta_assert(elements(shp) == size(),
                    "shape holds %ld elements, data %ld",
                    elements(shp), size());
        computeStrides();
    }

    /** Number of dimensions. */
    int rank() const { return static_cast<int>(shp.size()); }

    /** Extent of dimension i. */
    int
    dim(int i) const
    {
        s2ta_assert(i >= 0 && i < rank(), "dim %d of rank-%d tensor",
                    i, rank());
        return shp[static_cast<size_t>(i)];
    }

    /** Full shape vector. */
    const std::vector<int> &shape() const { return shp; }

    /** Total element count. */
    int64_t size() const { return static_cast<int64_t>(buf.size()); }

    /** Raw storage access. */
    T *data() { return buf.data(); }
    const T *data() const { return buf.data(); }

    /** Linear (flat) element access. */
    T &
    flat(int64_t i)
    {
        s2ta_assert(i >= 0 && i < size(), "flat index %ld", i);
        return buf[static_cast<size_t>(i)];
    }

    const T &
    flat(int64_t i) const
    {
        s2ta_assert(i >= 0 && i < size(), "flat index %ld", i);
        return buf[static_cast<size_t>(i)];
    }

    /** Multi-dimensional element access, e.g. t(n, h, w, c). */
    template <typename... Idx>
    T &
    operator()(Idx... idx)
    {
        return buf[static_cast<size_t>(offset(idx...))];
    }

    template <typename... Idx>
    const T &
    operator()(Idx... idx) const
    {
        return buf[static_cast<size_t>(offset(idx...))];
    }

    /** Set every element to @p v. */
    void
    fill(T v)
    {
        std::fill(buf.begin(), buf.end(), v);
    }

    /** Reshape in place; the element count must be preserved. */
    void
    reshape(std::vector<int> new_shape)
    {
        int64_t n = 1;
        for (int d : new_shape)
            n *= d;
        s2ta_assert(n == size(), "reshape %ld -> %ld elements",
                    size(), n);
        shp = std::move(new_shape);
        computeStrides();
    }

    bool
    operator==(const Tensor &o) const
    {
        return shp == o.shp && buf == o.buf;
    }

  private:
    /** Element count of @p shape, whose dims must be positive. */
    static int64_t
    elements(const std::vector<int> &shape)
    {
        int64_t n = 1;
        for (int d : shape) {
            s2ta_assert(d > 0, "non-positive dim %d", d);
            n *= d;
        }
        return n;
    }

    /** Recompute row-major strides from the shape. */
    void
    computeStrides()
    {
        str.assign(shp.size(), 1);
        for (int i = rank() - 2; i >= 0; --i) {
            str[static_cast<size_t>(i)] =
                str[static_cast<size_t>(i + 1)] *
                shp[static_cast<size_t>(i + 1)];
        }
    }

    /** Compute the flat offset of a multi-index. */
    template <typename... Idx>
    int64_t
    offset(Idx... idx) const
    {
        s2ta_assert(sizeof...(idx) == shp.size(),
                    "%zu indices for rank-%d tensor",
                    sizeof...(idx), rank());
        const int64_t ii[] = {static_cast<int64_t>(idx)...};
        int64_t off = 0;
        for (size_t i = 0; i < sizeof...(idx); ++i) {
            s2ta_assert(ii[i] >= 0 && ii[i] < shp[i],
                        "index %ld out of bound %d at dim %zu",
                        ii[i], shp[i], i);
            off += ii[i] * str[i];
        }
        return off;
    }

    std::vector<int> shp;
    std::vector<int64_t> str;
    std::vector<T> buf;
};

using Int8Tensor = Tensor<int8_t>;
using Int32Tensor = Tensor<int32_t>;
using FloatTensor = Tensor<float>;

} // namespace s2ta

#endif // S2TA_TENSOR_TENSOR_HH
