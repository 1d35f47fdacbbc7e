# Usage: cmake -DREPRO=<mparch_repro> -DGOLDEN=<dir> -DOUT=<dir>
#              [-DRECORD=ON] -P compare_repro.cmake
#
# Runs every registry experiment at throwaway size with --json OUT,
# then compares each ResultDoc line by line with its pinned copy
# GOLDEN/<id>.json. A differing line, a missing golden file or an
# extra one fails, naming the experiment, the line number and both
# lines. Engine-kind documents are skipped: their cells are
# wall-clock times. RECORD=ON rewrites GOLDEN from this run instead.

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
    file(READ "${path}" text)
    if(NOT text MATCHES "\n  \"kind\": \"engine\",")
        get_filename_component(id "${path}" NAME_WE)
        list(APPEND ids "${id}")
    endif()
endforeach()

if(RECORD)
    file(REMOVE_RECURSE "${GOLDEN}")
    foreach(id IN LISTS ids)
        file(COPY "${OUT}/${id}.json" DESTINATION "${GOLDEN}")
    endforeach()
    message(STATUS "recorded ${GOLDEN}")
    return()
endif()

# Append the first line where two differing texts part to failures.
# Lines are cut with string(FIND), not CMake lists, which mangle '['
# and ';'.
function(report_first_difference id expected actual)
    set(line 1)
    while(TRUE)
        string(FIND "${expected}" "\n" end_e)
        string(FIND "${actual}" "\n" end_a)
        string(SUBSTRING "${expected}" 0 ${end_e} e)
        string(SUBSTRING "${actual}" 0 ${end_a} a)
        if(NOT e STREQUAL a OR (end_e EQUAL -1 AND end_a EQUAL -1))
            break()
        endif()
        math(EXPR end_e "${end_e} + 1")
        math(EXPR end_a "${end_a} + 1")
        string(SUBSTRING "${expected}" ${end_e} -1 expected)
        string(SUBSTRING "${actual}" ${end_a} -1 actual)
        math(EXPR line "${line} + 1")
    endwhile()
    string(APPEND failures "${id}: line ${line} differs\n"
        "  expected: ${e}\n  actual:   ${a}\n")
    set(failures "${failures}" PARENT_SCOPE)
endfunction()

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
