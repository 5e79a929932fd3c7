# Golden-file regression for the thriftyvid command line.
#
# Runs the CLI over a fixed set of invocations and compares each one's exit
# code and captured output to tests/data/cli/<case>.out.  Every fixture
# starts with the command line and the exit code, then holds stdout (or
# stderr for the rejected-input cases, where stdout is empty), then the
# contents of any file the invocation writes.  Successful runs print their
# timing summary on stderr, so stderr is only pinned where it carries the
# error message.  Outputs are bit-identical for any --threads, so a
# difference is a real behaviour change and must be reviewed, not absorbed.
#
#     cmake -DTHRIFTYVID=<binary> -DDATA_DIR=<tests/data/cli>
#           -DWORK_DIR=<scratch dir> -P cli_golden.cmake
#
# ctest runs this as CliGolden (label cli).  After an intentional change,
# regenerate with
#
#     TV_UPDATE_GOLDEN=1 ctest --test-dir build -R CliGolden
#
# and inspect the fixture diff.
cmake_minimum_required(VERSION 3.16)

foreach(var THRIFTYVID DATA_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden.cmake: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(update FALSE)
if(DEFINED ENV{TV_UPDATE_GOLDEN})
  set(update TRUE)
  file(MAKE_DIRECTORY "${DATA_DIR}")
endif()
set(failed "")

# cli_case(<name> [STDERR] ARGS <argv...> [FILES <written file...>]
#          [KEEP <pre-existing file...>])
#
# FILES are removed before the run and appended to the output after it.
# KEEP files are seeded with a known line before the run and appended
# after it, so the fixture shows whether the run left them alone.  Paths
# are relative to WORK_DIR, which is also the working directory.
function(cli_case name)
  cmake_parse_arguments(PARSE_ARGV 1 C "STDERR" "" "ARGS;FILES;KEEP")
  foreach(f IN LISTS C_FILES)
    file(REMOVE "${WORK_DIR}/${f}")
  endforeach()
  foreach(f IN LISTS C_KEEP)
    file(WRITE "${WORK_DIR}/${f}" "precious\n")
  endforeach()
  execute_process(COMMAND "${THRIFTYVID}" ${C_ARGS}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(JOIN " " cmdline ${C_ARGS})
  set(text "$ thriftyvid ${cmdline}\n[exit ${rc}]\n")
  if(C_STDERR)
    string(APPEND text "[stderr]\n${err}")
  else()
    string(APPEND text "${out}")
  endif()
  foreach(f IN LISTS C_FILES C_KEEP)
    if(EXISTS "${WORK_DIR}/${f}")
      file(READ "${WORK_DIR}/${f}" content)
    else()
      set(content "(missing)\n")
    endif()
    string(APPEND text "[file ${f}]\n${content}")
  endforeach()

  set(fixture "${DATA_DIR}/${name}.out")
  if(update)
    file(WRITE "${fixture}" "${text}")
    return()
  endif()
  if(EXISTS "${fixture}")
    file(READ "${fixture}" expected)
  else()
    set(expected "(no fixture)")
  endif()
  if(NOT text STREQUAL expected)
    file(WRITE "${WORK_DIR}/${name}.actual" "${text}")
    message(STATUS "FAIL ${name}: diff ${fixture} ${WORK_DIR}/${name}.actual")
    set(failed "${failed} ${name}" PARENT_SCOPE)
  endif()
endfunction()

set(sweep --threads=2 --frames=30 --reps=2 --gops=15 --policies=none,I
          --quality=off)
cli_case(sweep_table ARGS sweep ${sweep})
cli_case(sweep_jsonl ARGS sweep ${sweep} --format=jsonl)
cli_case(sweep_csv ARGS sweep ${sweep} --format=csv)
cli_case(sweep_stage_stats ARGS sweep ${sweep} --stage-stats)
# Quality on over a lossy channel, so receiver GOPs are damaged and the
# PSNR/MOS columns come from a real decode of partial frames.
cli_case(sweep_quality_lossy ARGS sweep --threads=2 --motions=low,high
         --frames=30 --gops=10 --reps=3 --policies=none,I,P,all
         --algs=AES256,3DES --quality=on --loss=0.02 --burst=3 --format=jsonl)

set(cell --threads=2 --flows=1,2 --frames=16 --gops=8 --reps=2 --quality=off)
cli_case(cell_table ARGS cell ${cell})
cli_case(cell_jsonl ARGS cell ${cell} --format=jsonl)
cli_case(cell_csv ARGS cell ${cell} --format=csv)

set(cell_validate --validate --threads=2 --ns=2,3 --cws=16 --stages=3
                  --slots=20000 --warmup=2000)
cli_case(cell_validate_table ARGS cell ${cell_validate})
cli_case(cell_validate_jsonl ARGS cell ${cell_validate} --format=jsonl)

set(events --threads=2 --events=20000 --warmup=2000 --batches=20
           --lambda1s=2400 --lambda2s=80 --eaves-reps=50)
cli_case(simulate_events_table ARGS simulate ${events})
cli_case(simulate_events_jsonl ARGS simulate ${events} --format=jsonl)

set(analyze --threads=2 --frames=32 --gop=16 --policies=none,I
            --shapings=none,pad256)
cli_case(analyze_table ARGS analyze ${analyze})
cli_case(analyze_jsonl ARGS analyze ${analyze} --format=jsonl)
cli_case(analyze_csv ARGS analyze ${analyze} --format=csv)
cli_case(analyze_tee ARGS analyze ${analyze} --json=tee.jsonl --csv=tee.csv
         FILES tee.jsonl tee.csv)

foreach(cmd classify simulate "simulate;--events=1" sweep cell
            "cell;--validate" advise export analyze "live;loopback"
            "live;send" "live;recv" "live;proxy" "live;load")
  string(REPLACE ";" "_" name "${cmd}")
  string(REPLACE "-" "" name "${name}")
  string(REPLACE "=" "" name "${name}")
  cli_case(help_${name} ARGS ${cmd} --help)
endforeach()

cli_case(sweep_bad_format STDERR ARGS sweep --format=bogus)
cli_case(cell_validate_bad_format STDERR
         ARGS cell --validate --format=csv)
# A rejected --format must fail before any output file is opened.
cli_case(sweep_bad_format_keeps_out STDERR
         ARGS sweep --out=keep.txt --format=bogus KEEP keep.txt)
cli_case(simulate_events_bad_format_keeps_trace STDERR
         ARGS simulate --events=1 --trace=keep.jsonl --out=keep.txt
              --format=csv
         KEEP keep.jsonl keep.txt)
cli_case(advise_bad_objective STDERR ARGS advise --objective=pwoer)
# A NaN rate must be rejected up front as an invalid MMPP, not surface
# later as a solver failure.
cli_case(simulate_events_nan_rate STDERR
         ARGS simulate --events=100 --batches=10 --warmup=10 --eaves-reps=5
              --lambda1s=nan)

if(failed)
  message(FATAL_ERROR "CLI golden mismatch:${failed}; regenerate with "
                      "TV_UPDATE_GOLDEN=1 only after reviewing the diff")
endif()
