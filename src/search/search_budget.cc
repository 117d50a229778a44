#include "search/search_budget.h"

#include "common/strutil.h"

namespace cimmlc {

Status
SearchBudget::validate() const
{
    if (max_full_evals < 0)
        return invalidArgument("search budget 'evals' must be >= 0 "
                               "(0 disables budgeting)");
    if (!(proxy_prefix_fraction >= 0.0 && proxy_prefix_fraction <= 1.0))
        return invalidArgument(
            "search budget 'proxy_prefix_fraction' must be in [0, 1]");
    return Status::ok();
}

Status
SearchBudget::validateForHalving() const
{
    CIMMLC_RETURN_IF_ERROR(validate());
    if (enabled() && !proxy_opt_none && proxy_prefix_fraction <= 0.0)
        return invalidArgument(
            "search budget proxy stage must differ from full fidelity: "
            "enable proxy_opt_none or set proxy_prefix_fraction > 0");
    return Status::ok();
}

std::string
SearchBudget::toString() const
{
    if (!enabled())
        return "exhaustive";
    std::string proxy;
    if (proxy_opt_none)
        proxy = "opt=none";
    if (proxy_prefix_fraction > 0.0) {
        if (!proxy.empty())
            proxy += "+";
        proxy += strformat("prefix%.2g", proxy_prefix_fraction);
    }
    return strformat("evals<=%lld proxy[%s]",
                     static_cast<long long>(max_full_evals),
                     proxy.c_str());
}

StatusOr<SearchBudget>
searchBudgetFromConfig(const ConfigValue &doc)
{
    const std::string surface = "search budget";
    SearchBudget budget;
    if (doc.isNumber()) {
        CIMMLC_RETURN_IF_ERROR(
            readTypedKey(surface, "evals", doc, &budget.max_full_evals));
    } else if (doc.isObject()) {
        CIMMLC_RETURN_IF_ERROR(rejectUnknownKeys(
            surface, doc,
            {"evals", "proxy_opt_none", "proxy_prefix_fraction"}));
        if (!doc.has("evals"))
            return parseError("search budget object needs an 'evals' "
                              "count");
        CIMMLC_RETURN_IF_ERROR(readTypedMember(surface, doc, "evals",
                                               &budget.max_full_evals));
        CIMMLC_RETURN_IF_ERROR(readTypedMember(
            surface, doc, "proxy_opt_none", &budget.proxy_opt_none));
        CIMMLC_RETURN_IF_ERROR(
            readTypedMember(surface, doc, "proxy_prefix_fraction",
                            &budget.proxy_prefix_fraction));
    } else {
        return parseError("search budget must be a number (the full-"
                          "evaluation cap) or an object with an 'evals' "
                          "key");
    }
    CIMMLC_RETURN_IF_ERROR(budget.validate());
    return budget;
}

ConfigValue
searchBudgetToConfig(const SearchBudget &budget)
{
    ConfigValue::Object doc;
    doc["evals"] = ConfigValue::makeNumber(
        static_cast<double>(budget.max_full_evals));
    doc["proxy_opt_none"] = ConfigValue::makeBool(budget.proxy_opt_none);
    doc["proxy_prefix_fraction"] =
        ConfigValue::makeNumber(budget.proxy_prefix_fraction);
    return ConfigValue::makeObject(std::move(doc));
}

} // namespace cimmlc
