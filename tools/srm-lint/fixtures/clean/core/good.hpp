// Clean fixture: public numeric API with SRM_EXPECTS in the sibling .cpp.
#pragma once

namespace srm::core {

class Model {
 public:
  explicit Model(double rate);
  [[nodiscard]] double log_pdf(double x) const;
  [[nodiscard]] double rate() const { return rate_; }
  // Inline numeric function carrying its own precondition.
  [[nodiscard]] double scaled(double s) const {
    SRM_EXPECTS(s > 0.0, "scale must be positive");
    return rate_ * s;
  }

 private:
  double helper(double x) const;  // private: not subject to the rule
  double rate_;
};

// Free function without numeric scalar params: not subject to the rule.
double summarize(const Model& m);

// Free numeric function: its precondition lives in the sibling good.cpp.
double packed_pdf(const Model& m, double x, int lanes);

}  // namespace srm::core

namespace srm::core {

class Interface {
 public:
  // Pure virtual: the expects rule applies to the overrides, not here.
  [[nodiscard]] virtual double hazard(double t) const = 0;
  virtual ~Interface();
};

}  // namespace srm::core
