/**
 * @file
 * Immutable, content-fingerprinted INT8 operand.
 *
 * A deployed layer's operands never change once built: S2TA fixes a
 * model's DBB weights offline (Sec. 4), and a request's activations
 * are fixed when the request is formed. FrozenTensor makes that a
 * type-level fact. It holds the tensor behind a shared const pointer
 * together with the tensor's PlanCache::hashBytes fingerprint, taken
 * once, at construction. Copies share storage and fingerprint; the
 * only way to change an operand is to assign a new tensor, which
 * builds a new fingerprint — so a stale content key cannot exist,
 * and the plan cache keys a layer without re-reading its operands.
 */

#ifndef S2TA_ARCH_FROZEN_TENSOR_HH
#define S2TA_ARCH_FROZEN_TENSOR_HH

#include <memory>

#include "tensor/tensor.hh"

namespace s2ta {

class FrozenTensor
{
  public:
    /** The empty tensor (zero elements, the empty-input hash). */
    FrozenTensor();

    /** Freeze @p t: take ownership and fingerprint its bytes.
     *  Implicit, so `wl.input = makeDbbTensor(...)` reads as an
     *  assignment of a new operand. */
    FrozenTensor(Int8Tensor t);

    /** PlanCache::hashBytes over data()[0, size()). */
    uint64_t hash() const { return h; }

    operator const Int8Tensor &() const { return *t; }

    const int8_t *data() const { return t->data(); }
    int64_t size() const { return t->size(); }
    const std::vector<int> &shape() const { return t->shape(); }
    int dim(int i) const { return t->dim(i); }

    /** Read-only element access, e.g. w(ky, kx, c, oc). */
    template <typename... Idx>
    const int8_t &
    operator()(Idx... idx) const
    {
        return (*t)(idx...);
    }

    /** Same shape and bytes. */
    bool
    operator==(const FrozenTensor &o) const
    {
        return t == o.t || (h == o.h && *t == *o.t);
    }

  private:
    std::shared_ptr<const Int8Tensor> t;
    uint64_t h;
};

} // namespace s2ta

#endif // S2TA_ARCH_FROZEN_TENSOR_HH
