#include "arch/frozen_tensor.hh"

#include "arch/plan_cache.hh"

namespace s2ta {

FrozenTensor::FrozenTensor() : FrozenTensor(Int8Tensor()) {}

FrozenTensor::FrozenTensor(Int8Tensor tensor)
    : t(std::make_shared<const Int8Tensor>(std::move(tensor))),
      h(PlanCache::hashBytes(t->data(),
                             static_cast<size_t>(t->size())))
{}

} // namespace s2ta
