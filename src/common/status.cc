#include "common/status.h"

namespace fairtopk {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kUnimplemented:
      return "UNIMPLEMENTED";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kChecksumMismatch:
      return "CHECKSUM_MISMATCH";
    case StatusCode::kVersionMismatch:
      return "VERSION_MISMATCH";
    case StatusCode::kTruncated:
      return "TRUNCATED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace fairtopk
