#!/bin/sh
# Regenerate the test list from the directory contents.
cd "$(dirname "$0")"
{
  echo "# One test binary per source file; each registers as one CTest entry"
  echo "# running its full gtest suite. Regenerate with tests/regen.sh."
  echo "set(FTC_TEST_SOURCES"
  ls test_*.cpp | sed 's/^/  /'
  echo ")"
  echo ""
  echo 'foreach(src ${FTC_TEST_SOURCES})'
  echo '  get_filename_component(name ${src} NAME_WE)'
  echo '  add_executable(${name} ${src})'
  echo '  target_link_libraries(${name} PRIVATE'
  echo '    ftc_core ftc_ckpt ftc_fieldhunter ftc_serve ftc_telemetry ftc_testing ftc_warnings'
  echo '    GTest::gtest GTest::gtest_main)'
  echo '  add_test(NAME ${name} COMMAND ${name})'
  echo 'endforeach()'
} > CMakeLists.txt
