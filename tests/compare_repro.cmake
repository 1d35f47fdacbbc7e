# Usage: cmake -DREPRO=<mparch_repro> -DGOLDEN=<dir> -DOUT=<dir>
#              [-DRECORD=ON] -P compare_repro.cmake
#
# Runs every registry experiment at throwaway size with --json OUT,
# then compares each ResultDoc line by line with its pinned copy
# GOLDEN/<id>.json. A differing line, a missing golden file or an
# extra one fails, naming the experiment, the line number and both
# lines. RECORD=ON rewrites GOLDEN from this run instead.

cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${OUT}")
execute_process(
    COMMAND "${REPRO}" --trials 2 --scale 0.1 --jobs 1 --no-progress
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
    file(REMOVE_RECURSE "${GOLDEN}")
    foreach(id IN LISTS ids)
        file(COPY "${OUT}/${id}.json" DESTINATION "${GOLDEN}")
    endforeach()
    message(STATUS "recorded ${GOLDEN}")
    return()
endif()

include("${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake")

set(failures "")
file(GLOB pinned "${GOLDEN}/*.json")
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
    # NOTICE prints verbatim; FATAL_ERROR would re-wrap the lines.
    message(NOTICE "ResultDocs differ from ${GOLDEN}:\n${failures}"
        "If the change is meant to move results, re-record with\n"
        "  cmake -DREPRO=${REPRO} -DGOLDEN=${GOLDEN} -DOUT=${OUT}"
        " -DRECORD=ON -P ${CMAKE_CURRENT_LIST_FILE}\n"
        "and name the values that moved in CHANGES.md.")
    message(FATAL_ERROR "pinned ResultDocs differ")
endif()
