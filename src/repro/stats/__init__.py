"""Statistics substrate: special functions (:mod:`repro.stats.special`),
the one-sample t-test (:mod:`repro.stats.ttest`) and the Wilson interval
for accuracy proportions (:mod:`repro.stats.proportion`). Import from
those modules; the package re-exports nothing.

The container has no scipy, so the regularized incomplete beta function
(and the Student-t distribution built on it) is implemented here from
scratch and unit-tested against closed forms.
"""
