# Usage: cmake -DOBJDUMP=<objdump> -DX86_GNU=ON|OFF
#              "-DOBJECTS=<object>|<object>|..." -P check_fma_unit.cmake
#
# Checks that every *FmaUnit function src/fp/host.cc compiles holds a
# vfmadd instruction. Their target("fma") attribute is what makes
# std::fma the instruction there; with it lost, they call libm's fma,
# return the same bits and run slower, so no results test notices.
# Prints "skipped:" (the test's SKIP_REGULAR_EXPRESSION) and passes
# without objdump or outside an x86 GNU build.

cmake_minimum_required(VERSION 3.16)

if(NOT X86_GNU)
    message("skipped: the FMA-unit compilations exist on x86 GNU only")
    return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
    message("skipped: no objdump")
    return()
endif()

string(REPLACE "|" ";" OBJECTS "${OBJECTS}")
set(host "")
foreach(obj IN LISTS OBJECTS)
    if(obj MATCHES "/host\\.cc\\.o(bj)?$")
        set(host "${obj}")
    endif()
endforeach()
if(host STREQUAL "")
    message(FATAL_ERROR "no host.cc object among: ${OBJECTS}")
endif()

# Mangled names (no -C) carry no brackets or semicolons, so the
# listing splits into lines safely.
execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${host}"
    RESULT_VARIABLE status OUTPUT_VARIABLE listing ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "${OBJDUMP} failed on ${host}: ${err}")
endif()
string(REPLACE ";" "," listing "${listing}")
string(REPLACE "\n" ";" lines "${listing}")

set(units "")
set(fused "")
set(current "")
foreach(line IN LISTS lines)
    if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
        set(current "${CMAKE_MATCH_1}")
        # Functions only (not hostHasFmaUnit's static initialiser),
        # and not their cold split-off parts, which hold no loop.
        if(current MATCHES "^_Z.*FmaUnit" AND NOT current MATCHES "\\.cold")
            list(APPEND units "${current}")
        endif()
    elseif(line MATCHES "\tvfmadd" AND current IN_LIST units)
        list(APPEND fused "${current}")
    endif()
endforeach()

if(units STREQUAL "")
    message(FATAL_ERROR "no *FmaUnit function in ${host}")
endif()
set(missing "")
foreach(fn IN LISTS units)
    if(NOT fn IN_LIST fused)
        list(APPEND missing "${fn}")
    endif()
endforeach()
list(LENGTH units count)
if(NOT missing STREQUAL "")
    list(JOIN missing "\n  " missing)
    message(FATAL_ERROR
        "no vfmadd in these FmaUnit functions (target(\"fma\") lost?):\n"
        "  ${missing}")
endif()
message("${count} FmaUnit functions, each with vfmadd")
