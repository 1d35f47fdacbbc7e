# Usage: cmake -DREPRO=<mparch_repro> -DGOLDEN=<dir> -DOUT=<dir>
#              [-DID=<experiment>] [-DJOBS=<n>] [-DRECORD=ON]
#              -P compare_repro.cmake
#
# Without ID: runs every registry experiment at throwaway size
# (--trials 2 --scale 0.1). With ID: runs that one experiment at its
# default trials and scale. Either way at --jobs 1 (or --jobs JOBS)
# with --json OUT, then compares each ResultDoc line by line with its
# pinned copy GOLDEN/<id>.json. With JOBS, the ResultDoc's "jobs" line
# is left out of the comparison: the pins are recorded at --jobs 1,
# and every other line must not depend on the worker count. A
# differing line, a missing golden file or an extra one fails, naming
# the experiment, the line number and both lines. RECORD=ON rewrites
# the pinned copies from this run instead (not with JOBS).

cmake_minimum_required(VERSION 3.16)

if(NOT JOBS)
    set(JOBS 1)
elseif(RECORD)
    message(FATAL_ERROR "pins are recorded at --jobs 1: drop -DJOBS")
endif()

if(ID)
    set(select --filter "^${ID}$")
    set(pattern "${ID}.json")
else()
    set(select --trials 2 --scale 0.1)
    set(pattern "*.json")
endif()

file(REMOVE_RECURSE "${OUT}")
execute_process(
    COMMAND "${REPRO}" ${select} --jobs ${JOBS} --no-progress
            --json "${OUT}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "mparch_repro exited with '${status}'\n${err}")
endif()

set(ids "")
file(GLOB docs "${OUT}/*.json")
foreach(path IN LISTS docs)
    get_filename_component(id "${path}" NAME_WE)
    list(APPEND ids "${id}")
endforeach()

if(RECORD)
    if(NOT ID)
        file(REMOVE_RECURSE "${GOLDEN}")
    endif()
    foreach(id IN LISTS ids)
        file(COPY "${OUT}/${id}.json" DESTINATION "${GOLDEN}")
    endforeach()
    message(STATUS "recorded ${GOLDEN}/${pattern}")
    return()
endif()

include("${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake")

set(failures "")
file(GLOB pinned "${GOLDEN}/${pattern}")
set(pinned_ids "")
foreach(path IN LISTS pinned)
    get_filename_component(id "${path}" NAME_WE)
    list(APPEND pinned_ids "${id}")
    if(NOT id IN_LIST ids)
        string(APPEND failures "${id}: pinned, but no longer written\n")
        continue()
    endif()
    file(READ "${path}" expected)
    file(READ "${OUT}/${id}.json" actual)
    if(NOT JOBS EQUAL 1)
        set(jobs_line "\n  \"jobs\": [0-9]+,\n")
        string(REGEX REPLACE "${jobs_line}" "\n" expected "${expected}")
        string(REGEX REPLACE "${jobs_line}" "\n" actual "${actual}")
    endif()
    if(NOT expected STREQUAL actual)
        report_first_difference("${id}" "${expected}" "${actual}")
    endif()
endforeach()
foreach(id IN LISTS ids)
    if(NOT id IN_LIST pinned_ids)
        string(APPEND failures "${id}: no pinned ${GOLDEN}/${id}.json\n")
    endif()
endforeach()

if(failures)
    if(ID)
        set(id_arg " -DID=${ID}")
    endif()
    # NOTICE prints verbatim; FATAL_ERROR would re-wrap the lines.
    message(NOTICE "ResultDocs differ from ${GOLDEN}:\n${failures}"
        "If the change is meant to move results, re-record with\n"
        "  cmake -DREPRO=${REPRO} -DGOLDEN=${GOLDEN} -DOUT=${OUT}"
        "${id_arg} -DRECORD=ON -P ${CMAKE_CURRENT_LIST_FILE}\n"
        "and name the values that moved in CHANGES.md.")
    message(FATAL_ERROR "pinned ResultDocs differ")
endif()
