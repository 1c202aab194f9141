"""The paper's core: hypotheses, estimators, testing, PHASE samplers."""
