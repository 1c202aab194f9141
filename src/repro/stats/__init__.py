"""Statistics substrate: the Student-t distribution and the one-sample
t-test (:mod:`repro.stats.ttest`) and the Wilson interval for accuracy
proportions (:mod:`repro.stats.proportion`). Import from those modules;
the package re-exports nothing.

scipy is not a dependency, so the regularized incomplete beta function
under the Student-t is implemented in :mod:`repro.stats.ttest` on
``math.lgamma`` and unit-tested against closed forms.
"""
