#include "nvm/nvm_device.h"

namespace fewstate {

Status NvmConfig::Validate() const {
  if (num_cells == 0) {
    return Status::InvalidArgument("NvmConfig.num_cells must be > 0");
  }
  if (endurance == 0) {
    return Status::InvalidArgument("NvmConfig.endurance must be > 0");
  }
  if (read_energy_nj < 0 || write_energy_nj < 0 || read_latency_ns < 0 ||
      write_latency_ns < 0) {
    return Status::InvalidArgument("NvmConfig costs must be non-negative");
  }
  return Status::OK();
}

NvmDevice::NvmDevice(const NvmConfig& config)
    : config_(config), wear_(config.num_cells, 0) {}

double NvmDevice::energy_nj() const {
  return static_cast<double>(total_reads_) * config_.read_energy_nj +
         static_cast<double>(total_writes_) * config_.write_energy_nj;
}

double NvmDevice::latency_ns() const {
  return static_cast<double>(total_reads_) * config_.read_latency_ns +
         static_cast<double>(total_writes_) * config_.write_latency_ns;
}

double NvmDevice::lifetime_remaining() const {
  if (max_cell_wear_ >= config_.endurance) return 0.0;
  return 1.0 - static_cast<double>(max_cell_wear_) /
                   static_cast<double>(config_.endurance);
}

double NvmDevice::wear_imbalance() const {
  if (total_writes_ == 0) return 1.0;
  const double mean = static_cast<double>(total_writes_) /
                      static_cast<double>(config_.num_cells);
  return static_cast<double>(max_cell_wear_) / mean;
}

}  // namespace fewstate
