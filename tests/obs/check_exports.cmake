# Run mron_cli with every export flag and validate the artifacts with a
# stock Python interpreter: the trace, metrics and report files must be one
# JSON document each, the audit log one JSON object per line.
#
# Metrics carry the mron.metrics/2 schema tag and final values only: no
# metric entry has a time series (those live in the report's series).
#
# Two runs: Terasort under the conservative tuner, and the aggressive
# tuner's Bigram/Wikipedia test run alone (--runs=0 keeps its report), whose
# audit log carries before/after config pairs and whose report carries the
# tuner's convergence series.
#
# The number contract is pinned on every artifact: each number token is
# either an integer below 1e15 in magnitude (the exporters' integer path)
# or exactly Python's format(float(tok), '.17g'). A move to another text,
# such as the shortest round-trip form, must change this check on purpose.
function(run_cli prefix)
  execute_process(
    COMMAND ${CLI} ${ARGN}
            --metrics-out=${prefix}_metrics.json
            --trace-out=${prefix}_trace.json
            --audit-out=${prefix}_audit.jsonl
            --report-out=${prefix}_report.json
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE cli_rc
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT cli_rc EQUAL 0)
    message(FATAL_ERROR "mron_cli ${ARGN} failed with ${cli_rc}")
  endif()
endfunction()

run_cli(check --app=terasort --size-gb=2 --strategy=conservative)
run_cli(check_agg --app=bigram --corpus=wikipedia --strategy=aggressive
        --runs=0)

execute_process(
  COMMAND ${PYTHON} -c
"import json

def load_all(prefix):
    return (json.load(open(prefix + '_trace.json')),
            json.load(open(prefix + '_metrics.json')),
            [json.loads(l) for l in open(prefix + '_audit.jsonl')],
            json.load(open(prefix + '_report.json')))

for prefix in ('check', 'check_agg'):
    trace, metrics, audit, report = load_all(prefix)
    assert audit, prefix + ': audit log is empty'
    assert all('kind' in l and 't' in l for l in audit)
    events = trace['traceEvents']
    assert (sum(e['ph'] == 'B' for e in events) ==
            sum(e['ph'] == 'E' for e in events))
    assert metrics['metrics'], prefix + ': no metrics'
    assert next(iter(metrics)) == 'schema', prefix + ': schema is not first'
    assert metrics['schema'] == 'mron.metrics/2', metrics['schema']
    assert not any('series' in m for m in metrics['metrics']), \\
        prefix + ': a metric entry carries a series'

trace, metrics, audit, report = load_all('check_agg')
assert any('before' in l and 'after' in l for l in audit), \\
    'aggressive audit log has no before/after pairs'
tuner = [s for s in report['series']['series']
         if s['name'].startswith('tuner.') and s['points']]
assert tuner, 'aggressive report has no tuner series'

bad = []
def number(tok):
    digits = tok[1:] if tok.startswith('-') else tok
    if digits.isdigit() and abs(int(tok)) < 10**15:
        return tok
    if format(float(tok), '.17g') != tok:
        bad.append(tok)
    return tok
def reject(tok):
    raise ValueError('non-JSON constant ' + tok)

for prefix in ('check', 'check_agg'):
    for name in ('_trace.json', '_metrics.json', '_report.json',
                 '_audit.jsonl'):
        for doc in ([open(prefix + name).read()] if name.endswith('.json')
                    else open(prefix + name).read().splitlines()):
            json.loads(doc, parse_float=number, parse_int=number,
                       parse_constant=reject)
assert not bad, 'numbers outside the contract: %r' % bad[:10]
"
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE py_rc)
if(NOT py_rc EQUAL 0)
  message(FATAL_ERROR "export validation failed with ${py_rc}")
endif()

# A bare artifact flag followed by another flag takes the default name in a
# bench binary too; it never takes the next flag as its file name.
set(bare_dir ${WORKDIR}/check_bench_bare_flags)
file(REMOVE_RECURSE ${bare_dir})
file(MAKE_DIRECTORY ${bare_dir})
execute_process(
  COMMAND ${FIG} --jobs=1 --report-out --metrics-out
  WORKING_DIRECTORY ${bare_dir}
  RESULT_VARIABLE fig_rc OUTPUT_QUIET)
file(GLOB written RELATIVE ${bare_dir} ${bare_dir}/*)
if(NOT fig_rc EQUAL 0 OR
   NOT written STREQUAL "mron_metrics.json;mron_report.json")
  message(FATAL_ERROR "${FIG} bare flags: exit ${fig_rc}, wrote '${written}'")
endif()
