"""Tables 9a-9c: correlation and selection results on the remaining sentiment tasks."""

from repro.experiments import table1_correlation, table2_selection, table3_budget
from repro.engine import GridEngine


def test_table9_extended(benchmark, pipeline):
    def build():
        records = GridEngine(pipeline).run(
            tasks=("mr", "mpqa"), algorithms=("mc",), with_measures=True
        )
        return (
            table1_correlation.summarize(records),
            table2_selection.summarize(records),
            table3_budget.summarize(records),
        )

    correlation, selection, budget = benchmark.pedantic(build, rounds=1, iterations=1)
    print()
    print(correlation.to_table())
    print()
    print(selection.to_table())
    print()
    print(budget.to_table())
    assert len(correlation.rows) > 0
    assert len(selection.rows) > 0
    assert len(budget.rows) > 0
