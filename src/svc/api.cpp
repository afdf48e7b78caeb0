#include "svc/api.h"

namespace mhs::svc {

namespace {

// ------------------------------------------------------- strict readers
//
// Each reader validates the member's kind and records the first
// violation; `Fields` additionally rejects unknown keys, so a typo'd
// request fails loudly (the 400 path) instead of silently running with
// defaults.

class Fields {
 public:
  Fields(const obs::JsonValue& object, std::string context,
         std::string* error)
      : object_(object), context_(std::move(context)), error_(error) {}

  bool string(const char* key, std::string* out) {
    return read(key, [&](const obs::JsonValue& v) {
      if (!v.is_string()) return false;
      *out = v.as_string();
      return true;
    }, "a string");
  }

  bool number(const char* key, double* out) {
    return read(key, [&](const obs::JsonValue& v) {
      if (!v.is_number()) return false;
      *out = v.as_number();
      return true;
    }, "a number");
  }

  /// Exact: a fraction, a negative, an exponent form or a value above
  /// 2^64-1 is an error, never a rounded or truncated integer.
  bool u64(const char* key, std::uint64_t* out) {
    return read(key, [&](const obs::JsonValue& v) {
      const std::optional<std::uint64_t> value = v.as_u64();
      if (value) *out = *value;
      return value.has_value();
    }, "a non-negative integer");
  }

  bool flag(const char* key, bool* out) {
    return read(key, [&](const obs::JsonValue& v) {
      if (!v.is_bool()) return false;
      *out = v.as_bool();
      return true;
    }, "a boolean");
  }

  bool string_array(const char* key, std::vector<std::string>* out) {
    return read(key, [&](const obs::JsonValue& v) {
      if (!v.is_array()) return false;
      out->clear();
      for (const obs::JsonValue& item : v.as_array()) {
        if (!item.is_string()) return false;
        out->push_back(item.as_string());
      }
      return true;
    }, "an array of strings");
  }

  bool number_array(const char* key, std::vector<double>* out) {
    return read(key, [&](const obs::JsonValue& v) {
      if (!v.is_array()) return false;
      out->clear();
      for (const obs::JsonValue& item : v.as_array()) {
        if (!item.is_number()) return false;
        out->push_back(item.as_number());
      }
      return true;
    }, "an array of numbers");
  }

  /// Marks a key as consumed by caller-side parsing (so reject_unknown
  /// accepts it).
  void handled(const char* key) { seen_.push_back(key); }

  /// Fails on any key not consumed by a reader above.
  bool reject_unknown() {
    if (failed_) return false;
    for (const auto& [key, value] : object_.as_object()) {
      bool known = false;
      for (const std::string& seen : seen_) {
        if (seen == key) { known = true; break; }
      }
      if (!known) {
        fail("unknown field \"" + key + "\" in " + context_);
        return false;
      }
    }
    return true;
  }

  bool failed() const { return failed_; }

 private:
  template <typename Extract>
  bool read(const char* key, Extract&& extract, const char* expected) {
    if (failed_) return false;
    seen_.push_back(key);
    const obs::JsonValue* member = object_.find(key);
    if (member == nullptr) return true;  // absent: keep the default
    if (!extract(*member)) {
      fail(context_ + "." + key + " must be " + expected);
      return false;
    }
    return true;
  }

  void fail(std::string message) {
    failed_ = true;
    if (error_ != nullptr && error_->empty()) *error_ = std::move(message);
  }

  const obs::JsonValue& object_;
  std::string context_;
  std::string* error_;
  std::vector<std::string> seen_;
  bool failed_ = false;
};

bool parse_flow(const obs::JsonValue& params, FlowParams* out,
                std::string* error) {
  Fields f(params, "params", error);
  f.string("workload", &out->workload);
  f.string("graph", &out->graph);
  f.string_array("kernels", &out->kernels);
  f.string("strategy", &out->strategy);
  f.number("latency_target", &out->latency_target);
  f.number("area_weight", &out->area_weight);
  f.string("lint_level", &out->lint_level);
  f.flag("optimize_kernels", &out->optimize_kernels);
  f.flag("validate_with_hls", &out->validate_with_hls);
  f.flag("cosimulate", &out->cosimulate);
  f.string("cosim_level", &out->cosim_level);
  f.u64("cosim_samples", &out->cosim_samples);
  f.u64("cosim_seed", &out->cosim_seed);
  return f.reject_unknown();
}

bool parse_explore(const obs::JsonValue& params, ExploreParams* out,
                   std::string* error) {
  Fields f(params, "params", error);
  f.string("workload", &out->workload);
  f.string("graph", &out->graph);
  f.string_array("kernels", &out->kernels);
  f.string_array("strategies", &out->strategies);
  f.number_array("latency_targets", &out->latency_targets);
  f.number("area_weight", &out->area_weight);
  f.u64("threads", &out->threads);
  return f.reject_unknown();
}

bool parse_cosim(const obs::JsonValue& params, CosimParams* out,
                 std::string* error) {
  Fields f(params, "params", error);
  f.string("kernel", &out->kernel);
  f.string("kernel_text", &out->kernel_text);
  f.string("level", &out->level);
  f.u64("samples", &out->samples);
  f.u64("seed", &out->seed);
  f.flag("use_irq", &out->use_irq);
  f.u64("fault_seed", &out->fault_seed);
  f.handled("faults");
  if (const obs::JsonValue* faults = params.find("faults")) {
    if (!faults->is_array()) {
      if (error->empty()) *error = "params.faults must be an array";
      return false;
    }
    out->faults.clear();
    for (const obs::JsonValue& item : faults->as_array()) {
      if (!item.is_object()) {
        if (error->empty()) *error = "params.faults entries must be objects";
        return false;
      }
      FaultSpecParams spec;
      Fields sf(item, "params.faults[]", error);
      sf.string("kind", &spec.kind);
      sf.number("rate", &spec.rate);
      sf.u64("param", &spec.param);
      sf.u64("max_count", &spec.max_count);
      if (!sf.reject_unknown()) return false;
      out->faults.push_back(std::move(spec));
    }
  }
  return f.reject_unknown();
}

bool parse_lint(const obs::JsonValue& params, LintParams* out,
                std::string* error) {
  Fields f(params, "params", error);
  f.string_array("artifacts", &out->artifacts);
  f.flag("strict", &out->strict);
  f.flag("ranges", &out->ranges);
  return f.reject_unknown();
}

}  // namespace

const char* endpoint_name(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kFlow:          return "flow";
    case Endpoint::kExplore:       return "explore";
    case Endpoint::kCosim:         return "cosim";
    case Endpoint::kLint:          return "lint";
    case Endpoint::kFaultCampaign: return "fault-campaign";
    case Endpoint::kHealth:        return "health";
    case Endpoint::kMetrics:       return "metrics";
  }
  return "?";
}

const char* endpoint_path(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kFlow:          return "/v1/flow";
    case Endpoint::kExplore:       return "/v1/explore";
    case Endpoint::kCosim:         return "/v1/cosim";
    case Endpoint::kLint:          return "/v1/lint";
    case Endpoint::kFaultCampaign: return "/v1/fault-campaign";
    case Endpoint::kHealth:        return "/v1/health";
    case Endpoint::kMetrics:       return "/v1/metrics";
  }
  return "/";
}

const char* endpoint_method(Endpoint endpoint) {
  switch (endpoint) {
    case Endpoint::kHealth:
    case Endpoint::kMetrics:
      return "GET";
    default:
      return "POST";
  }
}

std::optional<Endpoint> endpoint_from_name(std::string_view name) {
  for (const Endpoint endpoint : kAllEndpoints) {
    if (name == endpoint_name(endpoint)) return endpoint;
  }
  return std::nullopt;
}

std::optional<Endpoint> endpoint_from_path(std::string_view path) {
  for (const Endpoint endpoint : kAllEndpoints) {
    if (path == endpoint_path(endpoint)) return endpoint;
  }
  return std::nullopt;
}

std::string_view path_without_query(std::string_view target) {
  const std::size_t query = target.find('?');
  return query == std::string_view::npos ? target : target.substr(0, query);
}

std::optional<std::string_view> parse_trace_path(std::string_view path) {
  constexpr std::string_view kPrefix = "/v1/trace/";
  if (path.size() <= kPrefix.size() || path.substr(0, kPrefix.size()) != kPrefix) {
    return std::nullopt;
  }
  const std::string_view id = path.substr(kPrefix.size());
  if (id.find('/') != std::string_view::npos) return std::nullopt;
  return id;
}

obs::JsonValue::Object profile_buckets(const obs::Profile& profile) {
  static constexpr const char* kKeys[obs::Profile::kNumCategories] = {
      "sw_execute", "bus", "dma", "peripheral_wait", "fault_recovery", "idle"};
  obs::JsonValue::Object out;
  for (std::size_t c = 0; c < obs::Profile::kNumCategories; ++c) {
    out.emplace_back(kKeys[c],
                     profile.cycles(static_cast<obs::Profile::Category>(c)));
  }
  return out;
}

std::string Request::json() const {
  const auto array = [](const auto& items) {
    return obs::JsonValue::Array(items.begin(), items.end());
  };
  obs::JsonValue::Object params;
  switch (endpoint) {
    case Endpoint::kFlow:
      params = {{"workload", flow.workload}, {"graph", flow.graph},
                {"kernels", array(flow.kernels)}, {"strategy", flow.strategy},
                {"latency_target", flow.latency_target},
                {"area_weight", flow.area_weight},
                {"lint_level", flow.lint_level},
                {"optimize_kernels", flow.optimize_kernels},
                {"validate_with_hls", flow.validate_with_hls},
                {"cosimulate", flow.cosimulate},
                {"cosim_level", flow.cosim_level},
                {"cosim_samples", flow.cosim_samples},
                {"cosim_seed", flow.cosim_seed}};
      break;
    case Endpoint::kExplore:
      params = {{"workload", explore.workload}, {"graph", explore.graph},
                {"kernels", array(explore.kernels)},
                {"strategies", array(explore.strategies)},
                {"latency_targets", array(explore.latency_targets)},
                {"area_weight", explore.area_weight},
                {"threads", explore.threads}};
      break;
    case Endpoint::kCosim:
    case Endpoint::kFaultCampaign: {
      obs::JsonValue::Array faults;
      for (const FaultSpecParams& spec : cosim.faults) {
        faults.emplace_back(obs::JsonValue::Object{
            {"kind", spec.kind}, {"rate", spec.rate}, {"param", spec.param},
            {"max_count", spec.max_count}});
      }
      params = {{"kernel", cosim.kernel}, {"kernel_text", cosim.kernel_text},
                {"level", cosim.level}, {"samples", cosim.samples},
                {"seed", cosim.seed}, {"use_irq", cosim.use_irq},
                {"fault_seed", cosim.fault_seed},
                {"faults", std::move(faults)}};
      break;
    }
    case Endpoint::kLint:
      params = {{"artifacts", array(lint.artifacts)}, {"strict", lint.strict},
                {"ranges", lint.ranges}};
      break;
    case Endpoint::kHealth:
    case Endpoint::kMetrics:
      break;
  }
  return obs::json_render(obs::JsonValue::Object{
      {"schema_version", 1}, {"endpoint", endpoint_name(endpoint)},
      {"params", std::move(params)}});
}

std::optional<Request> Request::from_json(std::string_view text,
                                          std::string* error) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  error->clear();

  obs::JsonError parse_error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(text, &parse_error);
  if (!doc) {
    *error = "invalid JSON: " + parse_error.str();
    return std::nullopt;
  }
  if (!doc->is_object()) {
    *error = "request must be a JSON object";
    return std::nullopt;
  }

  const obs::JsonValue* version = doc->find("schema_version");
  if (version != nullptr &&
      (!version->is_number() || version->as_number() != 1.0)) {
    *error = "unsupported schema_version (expected 1)";
    return std::nullopt;
  }

  const obs::JsonValue* name = doc->find("endpoint");
  if (name == nullptr || !name->is_string()) {
    *error = "request needs a string \"endpoint\" field";
    return std::nullopt;
  }
  const std::optional<Endpoint> endpoint = endpoint_from_name(name->as_string());
  if (!endpoint) {
    *error = "unknown endpoint \"" + name->as_string() + "\"";
    return std::nullopt;
  }

  for (const auto& [key, value] : doc->as_object()) {
    (void)value;
    if (key != "schema_version" && key != "endpoint" && key != "params") {
      *error = "unknown field \"" + key + "\" in request";
      return std::nullopt;
    }
  }

  Request request;
  request.endpoint = *endpoint;

  const obs::JsonValue* params = doc->find("params");
  static const obs::JsonValue kEmptyObject{obs::JsonValue::Object{}};
  if (params == nullptr) params = &kEmptyObject;
  if (!params->is_object()) {
    *error = "\"params\" must be an object";
    return std::nullopt;
  }

  bool ok = true;
  switch (request.endpoint) {
    case Endpoint::kFlow:
      ok = parse_flow(*params, &request.flow, error);
      break;
    case Endpoint::kExplore:
      ok = parse_explore(*params, &request.explore, error);
      break;
    case Endpoint::kCosim:
    case Endpoint::kFaultCampaign:
      ok = parse_cosim(*params, &request.cosim, error);
      break;
    case Endpoint::kLint:
      ok = parse_lint(*params, &request.lint, error);
      break;
    case Endpoint::kHealth:
    case Endpoint::kMetrics:
      if (!params->as_object().empty()) {
        *error = std::string(endpoint_name(request.endpoint)) +
                 " takes no params";
        ok = false;
      }
      break;
  }
  if (!ok) {
    if (error->empty()) *error = "malformed params";
    return std::nullopt;
  }
  return request;
}

std::string Response::json() const {
  std::string out = obs::json_render(obs::JsonValue::Object{
      {"schema_version", 1}, {"endpoint", endpoint}, {"status", status},
      {"error", error}});
  // Splice: result_json was rendered once at evaluation, and every cache
  // hit reuses those bytes.
  out.pop_back();
  out.reserve(out.size() + result_json.size() + 16);
  out += ",\"result\":";
  out += result_json.empty() ? "null" : result_json;
  out += '}';
  return out;
}

std::optional<Response> Response::from_json(std::string_view text,
                                            std::string* error) {
  std::string local_error;
  if (error == nullptr) error = &local_error;
  error->clear();

  obs::JsonError parse_error;
  const std::optional<obs::JsonValue> doc = obs::json_parse(text, &parse_error);
  if (!doc) {
    *error = "invalid JSON: " + parse_error.str();
    return std::nullopt;
  }
  if (!doc->is_object()) {
    *error = "response must be a JSON object";
    return std::nullopt;
  }
  const obs::JsonValue* status = doc->find("status");
  const obs::JsonValue* endpoint = doc->find("endpoint");
  const obs::JsonValue* message = doc->find("error");
  const obs::JsonValue* result = doc->find("result");
  const std::optional<std::uint64_t> code =
      status != nullptr ? status->as_u64() : std::nullopt;
  if (!code || *code < 100 || *code > 599 || endpoint == nullptr ||
      !endpoint->is_string() || message == nullptr || !message->is_string()) {
    *error = "response needs an integer \"status\" in 100..599 and string "
             "\"endpoint\"/\"error\" fields";
    return std::nullopt;
  }
  Response response;
  response.status = static_cast<int>(*code);
  response.endpoint = endpoint->as_string();
  response.error = message->as_string();
  if (result != nullptr && !result->is_null()) {
    response.result_json = obs::json_render(*result);
  }
  return response;
}

Response Response::failure(int status, std::string endpoint,
                           std::string message) {
  Response response;
  response.status = status;
  response.endpoint = std::move(endpoint);
  response.error = std::move(message);
  return response;
}

}  // namespace mhs::svc
