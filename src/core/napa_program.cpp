#include "core/napa_program.hpp"

#include <stdexcept>
#include <string>

namespace gt {

NapaProgram::NapaProgram(std::string name) { config_.name = std::move(name); }

NapaProgram& NapaProgram::aggregate(kernels::AggMode f) {
  config_.f = f;
  return *this;
}

NapaProgram& NapaProgram::edge_weight(kernels::EdgeWeightMode g) {
  config_.g = g;
  return *this;
}

NapaProgram& NapaProgram::layers(std::uint32_t n) {
  config_.num_layers = n;
  return *this;
}

NapaProgram& NapaProgram::hidden(std::uint32_t dim) {
  config_.hidden_dim = dim;
  return *this;
}

NapaProgram& NapaProgram::classes(std::uint32_t dim) {
  config_.output_dim = dim;
  return *this;
}

models::GnnModelConfig NapaProgram::build() const {
  if (config_.num_layers == 0)
    throw std::invalid_argument("NapaProgram: needs at least one layer");
  if (config_.num_layers > models::kMaxLayers)
    throw std::invalid_argument("NapaProgram: more than " +
                                std::to_string(models::kMaxLayers) +
                                " layers");
  if (config_.hidden_dim == 0 || config_.output_dim == 0)
    throw std::invalid_argument("NapaProgram: zero-width layer");
  if (config_.name.empty())
    throw std::invalid_argument("NapaProgram: empty model name");
  return config_;
}

}  // namespace gt
